package eventsim

import (
	"fmt"
	"math"
)

// laneEmpty is the stamp an empty lane reports: it ranks after every
// real event, so the front scan needs no emptiness test.
var laneEmpty = stamp{at: math.MaxInt64, key: math.MaxUint64, seq: math.MaxUint64}

// laneRef is the engine's view of one lane: a copy of its head's stamp
// (laneEmpty while the lane is empty) and the lane itself, called when
// that head is the earliest pending event.
type laneRef struct {
	stamp
	lane interface{ fire() }
}

// laneEntry is one queued lane event: its ordering stamp and payload.
type laneEntry[T any] struct {
	stamp
	v T
}

// Lane is a queue of future events held outside the heap, sorted in the
// engine's (at, key, seq) order; see the package comment's lane rule.
// Each entry carries a payload v, and firing it calls the lane's handler
// with v. A lane suits a stream of events whose times mostly arrive in
// order — packets crossing links that share one delivery delay — so Push
// is nearly always an append and firing pops the front: neither touches
// the heap.
type Lane[T any] struct {
	eng  *Engine
	idx  int
	q    []laneEntry[T]
	head int
	fn   func(T)
}

// NewLane returns an empty lane on e whose events call fn with their
// payload. The lane lives as long as the engine.
func NewLane[T any](e *Engine, fn func(T)) *Lane[T] {
	l := &Lane[T]{eng: e, idx: len(e.lanes), fn: fn}
	e.lanes = append(e.lanes, laneRef{stamp: laneEmpty, lane: l})
	return l
}

// Len reports the number of events queued in the lane.
func (l *Lane[T]) Len() int { return len(l.q) - l.head }

// Push queues an event firing fn(v) at absolute time at, ranked among
// same-instant events by key. It takes the engine's next sequence number,
// so the event fires exactly where ScheduleKeyed(at, key, …) called now
// would have fired it. The entry is inserted from the tail: an append
// unless a queued entry ranks after it.
func (l *Lane[T]) Push(at Time, key uint64, v T) {
	e := l.eng
	if at < e.now {
		panic(fmt.Sprintf("eventsim: lane push at %v before now %v", at, e.now))
	}
	x := laneEntry[T]{stamp: stamp{at: at, key: key, seq: e.takeSeq()}, v: v}
	l.q = append(l.q, x)
	i := len(l.q) - 1
	for i > l.head && x.less(&l.q[i-1].stamp) {
		l.q[i] = l.q[i-1]
		i--
	}
	l.q[i] = x
	if i == l.head {
		if i == len(l.q)-1 {
			e.laneLive++
		}
		e.lanes[l.idx].stamp = x.stamp
	}
}

// fire pops the head, publishes the new head to the engine, then runs the
// handler, so a handler pushing into this lane sees it consistent. The
// engine has already set the clock to the head's time.
func (l *Lane[T]) fire() {
	v := l.q[l.head].v
	l.q[l.head] = laneEntry[T]{}
	l.head++
	ref := &l.eng.lanes[l.idx]
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
		ref.stamp = laneEmpty
		l.eng.laneLive--
	} else {
		if l.head > 64 && l.head*2 > len(l.q) {
			n := copy(l.q, l.q[l.head:])
			clear(l.q[n:])
			l.q = l.q[:n]
			l.head = 0
		}
		ref.stamp = l.q[l.head].stamp
	}
	l.fn(v)
}

// Package eventsim provides a deterministic discrete-event simulation
// engine: a virtual clock, a priority queue of timestamped events, and
// seeded random-number streams that components can split off so that runs
// are reproducible regardless of scheduling order.
//
// The engine is deliberately single-threaded: determinism matters more than
// parallelism for a congestion-control study, where a one-packet reordering
// changes every downstream measurement. Parallelism comes from running
// several engines side by side — see the shard subpackage, which
// synchronizes one engine per fabric partition under conservative time
// windows without giving up the same-seed-same-trace contract.
//
// The scheduler is allocation-free in steady state: events live in a
// slab whose slots are recycled through an intrusive free-list, and the
// priority queue is an indexed 4-ary heap of (at, key, seq, slot) entries
// rather than a container/heap of boxed pointers: the ordering key lives
// inline in the heap array, so a sift never dereferences the slab to
// compare two events. Cancellation stays safe without
// retaining pointers because every EventID carries the slot's generation
// counter, which is bumped each time the slot fires or is cancelled.
//
// # Timer wheel ordering contract
//
// Recurring, frequently cancelled timers (TimerAfter / RearmAfter /
// RearmAt) take a second path: a hierarchical timing wheel with O(1)
// schedule, cancel, and reschedule-in-place. The wheel is a staging area,
// never an ordering authority — before any pop the engine flushes every
// wheel slot that could contain an event at or before the front (the
// heap's head or the earliest lane head) into the heap, where the single
// structural (at, key, seq) comparator decides the final order. A timer therefore fires in exactly the
// position it would have occupied had it been heap-scheduled all along:
// the merged pop stream is byte-identical to a heap-only engine's, which
// is what lets the chaos/dispatch/sharded golden traces stay frozen
// while the timer population moves off the heap. Every rearm consumes
// exactly one sequence number, the same budget as the Cancel+After pair
// it replaces, so tie-break order downstream of a rearm is unchanged
// too. The win is structural: timers that are cancelled or re-armed
// before firing (the per-CNP DCQCN churn) never touch the heap at all,
// and the thousands that merely sit pending stop inflating the heap
// that packet events have to sift through.
//
// # Lane rule
//
// A Lane holds future events outside the heap in a queue sorted by the
// same (at, key, seq) order, and takes each entry's sequence number when
// the entry is pushed, exactly as a ScheduleKeyed call made then would.
// The engine merges every lane's head with the heap's root at pop time
// (and the wheel flush treats that merged front as the heap head), so the
// merged pop stream equals per-event ScheduleKeyed scheduling: the order
// is a function of (at, key, seq) alone, not of which structure held the
// event. netdev keeps every packet in flight this way, one lane per
// delivery delay, so a delivery never touches the heap.
package eventsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. Nanosecond granularity is sufficient for 100–400 Gbps
// links, where even a minimum-size frame takes tens of nanoseconds to
// serialize.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts t to a standard library duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return t.Duration().String() }

// Handler is the callback invoked when an event fires. It runs at the
// event's scheduled virtual time.
type Handler func()

// event is one slab slot: a scheduled callback plus the bookkeeping that
// lets the slot be found in the heap and recycled.
type event struct {
	stamp
	fn Handler

	// gen is the slot's generation; it increments every time the slot is
	// released (fire or cancel), so EventIDs issued for earlier occupants
	// can never cancel the current one.
	gen uint32
	// heapIdx is the slot's position in the heap, -1 while unqueued, or
	// wheelQueued while the event is parked in the timing wheel.
	heapIdx int32
	// link is the slot's intrusive next pointer, serving double duty: the
	// free-list chain while released, the wheel slot's doubly linked list
	// while heapIdx == wheelQueued.
	link int32
	// wprev is the wheel list's back pointer (-1 at the head); only
	// meaningful while heapIdx == wheelQueued.
	wprev int32
	// wslot packs the wheel (level, slot) the event is parked in as
	// level*wheelSlots+slot; only meaningful while heapIdx == wheelQueued.
	wslot int16
}

// stamp is an event's ordering key. seq breaks ties between events
// scheduled for the same instant: earlier-scheduled events fire first,
// which keeps runs deterministic.
type stamp struct {
	at Time
	// key is an optional structural ordering key that ranks between at
	// and seq. Events scheduled with plain Schedule carry key 0, so their
	// relative order is pure (at, seq) — identical to the engine's
	// historic behavior. Sharded simulations schedule link deliveries
	// with a key derived from the sending (node, port, emission count),
	// making same-timestamp arrival order a function of the traffic
	// itself rather than of which engine scheduled it first; that is what
	// keeps a run byte-identical across shard counts.
	key uint64
	seq uint64
}

// less orders stamps by (time, key, sequence): the unique deterministic
// total order every heap layout and lane merge must realize. All-zero
// keys reduce this to the historic (time, sequence) order.
func (a *stamp) less(b *stamp) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// heapEntry is one heap position: the event's stamp, copied from its slab
// slot when the event enters the heap, plus the slot number.
type heapEntry struct {
	stamp
	slot int32
}

// EventID identifies a scheduled event so it can be cancelled. It is a
// value (slot number plus generation), not a pointer: holding one keeps
// nothing alive, and a stale ID — the event fired, was cancelled, or the
// slot was reused — safely no-ops in Cancel. The zero EventID is invalid
// and cancels nothing.
type EventID struct {
	slot int32
	gen  uint32
}

// Timing-wheel geometry. Six levels of 64 slots at a 1.024 µs base tick
// cover horizons up to 2^36 ticks (~19 hours of virtual time); anything
// beyond falls back to the heap. Level l slot widths are 2^(10+6l) ns, so
// the DCQCN timer range (microseconds to milliseconds) lands in levels
// 0–2.
const (
	wheelTickShift = 10 // ns per tick = 1 << wheelTickShift
	wheelBits      = 6  // slots per level = 1 << wheelBits
	wheelSlots     = 1 << wheelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 6

	// wheelQueued is the heapIdx sentinel marking an event parked in the
	// wheel rather than the heap.
	wheelQueued = -2
)

// wheelLevel is one ring of the hierarchical wheel: a 64-bit occupancy
// bitmap plus the head of each slot's intrusive event list. head[i] is
// only meaningful while bit i of occupied is set, so no -1 initialization
// is needed.
type wheelLevel struct {
	occupied uint64
	head     [wheelSlots]int32
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now Time
	seq uint64

	// slots is the event slab; freeHead chains released slots (-1 = none).
	slots    []event
	freeHead int32
	// heap is a 4-ary min-heap ordered by (at, key, seq). Each entry
	// carries its ordering key inline, so sifting compares array entries
	// and touches the slab only to record a moved slot's new position. A
	// 4-ary layout halves the tree depth of a binary heap.
	heap []heapEntry

	// wheel stages timer events (TimerAfter/RearmAfter/RearmAt) until
	// they are due; wheelTick is the level-0 tick the wheel is anchored
	// at, wheelCount the events currently parked. See the package
	// comment's ordering contract. wheelOff (SetWheelEnabled) forces
	// every timer onto the heap — the differential-testing baseline.
	wheel      [wheelLevels]wheelLevel
	wheelTick  int64
	wheelCount int
	wheelOff   bool

	// lanes are the engine's Lanes with their heads' stamps; laneLive
	// counts the non-empty ones. See the package comment's lane rule.
	lanes    []laneRef
	laneLive int

	rng     *rand.Rand
	stopped bool

	// Processed counts events executed since construction; useful for
	// progress reporting and overhead accounting.
	Processed uint64
}

// NewEngine returns an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), freeHead: -1}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reserve grows the event slab and heap storage so at least n events can
// be pending at once without either slice reallocating. Purely a
// capacity hint for benchmarks and latency-sensitive callers that want
// the steady state allocation-free from the first event; scheduling
// beyond n still works and grows as usual.
func (e *Engine) Reserve(n int) {
	if cap(e.slots) < n {
		slots := make([]event, len(e.slots), n)
		copy(slots, e.slots)
		e.slots = slots
	}
	if cap(e.heap) < n {
		heap := make([]heapEntry, len(e.heap), n)
		copy(heap, e.heap)
		e.heap = heap
	}
}

// Rand returns a new deterministic random stream for a component. Each call
// returns an independent generator seeded from the engine's master stream,
// so adding a component does not perturb the draws seen by others created
// before it.
func (e *Engine) Rand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past is a
// programming error and panics: silently reordering time corrupts every
// queue model downstream.
func (e *Engine) Schedule(at Time, fn Handler) EventID {
	return e.ScheduleKeyed(at, 0, fn)
}

// ScheduleKeyed runs fn at absolute virtual time at, ordered among
// same-timestamp events by key before insertion sequence. Key 0 (what
// Schedule uses) sorts before all nonzero keys with the same timestamp,
// preserving the historic (at, seq) order for unkeyed events. Nonzero keys
// give same-timestamp events a structural total order that is independent
// of which engine — or how many engines — scheduled them; the sharded
// runtime relies on this for its determinism contract.
func (e *Engine) ScheduleKeyed(at Time, key uint64, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", at, e.now))
	}
	slot := e.alloc()
	ev := &e.slots[slot]
	ev.stamp = stamp{at: at, key: key, seq: e.takeSeq()}
	ev.fn = fn
	e.heapPush(slot)
	return EventID{slot: slot, gen: ev.gen}
}

// takeSeq consumes the next sequence number.
func (e *Engine) takeSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// After runs fn after delay d from the current virtual time.
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// TimerAfter runs fn after delay d, routed through the timing wheel: use
// it for recurring or frequently cancelled timers, whose schedule and
// cancel then cost O(1) instead of a heap sift. Ordering is identical to
// After (key 0, next sequence number) — see the package comment's
// ordering contract.
func (e *Engine) TimerAfter(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.timerAt(e.now+d, fn)
}

// RearmAfter reschedules a live timer to fire after delay d, replacing
// the Cancel + After pair with one O(1) reschedule-in-place: the event
// keeps its slot and EventID. A stale id (the timer fired, was cancelled,
// or was never armed) schedules fn afresh via TimerAfter, so callers can
// rearm unconditionally from inside the timer's own handler. Either way
// exactly one sequence number is consumed — the same as Cancel+After —
// keeping same-timestamp tie order byte-identical to the churn path it
// replaces.
func (e *Engine) RearmAfter(id EventID, d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.RearmAt(id, e.now+d, fn)
}

// RearmAt is RearmAfter with an absolute deadline.
func (e *Engine) RearmAt(id EventID, at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: rearm at %v before now %v", at, e.now))
	}
	if id.gen != 0 && int(id.slot) < len(e.slots) {
		ev := &e.slots[id.slot]
		if ev.gen == id.gen {
			// Live: detach from wherever it is queued and reinsert in
			// place. The slot and generation survive, so id stays valid.
			if ev.heapIdx == wheelQueued {
				e.wheelUnlink(id.slot)
			} else {
				e.removeAt(int(ev.heapIdx))
			}
			ev.stamp = stamp{at: at, seq: e.takeSeq()}
			ev.fn = fn
			e.wheelInsert(id.slot)
			return id
		}
	}
	return e.timerAt(at, fn)
}

// timerAt allocates a fresh timer event and parks it in the wheel (or the
// heap, when the wheel is off or the deadline is due or out of range).
func (e *Engine) timerAt(at Time, fn Handler) EventID {
	slot := e.alloc()
	ev := &e.slots[slot]
	ev.stamp = stamp{at: at, seq: e.takeSeq()}
	ev.fn = fn
	e.wheelInsert(slot)
	return EventID{slot: slot, gen: ev.gen}
}

// alloc takes a slot from the free-list, growing the slab when empty.
func (e *Engine) alloc() int32 {
	slot := e.freeHead
	if slot >= 0 {
		e.freeHead = e.slots[slot].link
		return slot
	}
	// Grow the slab. Generations start at 1 so the zero EventID never
	// matches a live slot.
	e.slots = append(e.slots, event{gen: 1})
	return int32(len(e.slots) - 1)
}

// heapPush files slot in the heap under its slab ordering key. Most
// pushes rank after their parent and stay at the bottom, so the sift is
// entered only when the new entry has to rise.
func (e *Engine) heapPush(slot int32) {
	ev := &e.slots[slot]
	x := heapEntry{stamp: ev.stamp, slot: slot}
	i := len(e.heap)
	e.heap = append(e.heap, x)
	ev.heapIdx = int32(i)
	if i > 0 && x.less(&e.heap[(i-1)>>2].stamp) {
		e.siftUp(i, x)
	}
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired, cancelling twice, or cancelling the zero EventID is a
// no-op: the generation check rejects stale IDs even after slot reuse.
func (e *Engine) Cancel(id EventID) {
	if id.gen == 0 || int(id.slot) >= len(e.slots) {
		return
	}
	ev := &e.slots[id.slot]
	if ev.gen != id.gen || ev.heapIdx == -1 {
		return
	}
	if ev.heapIdx == wheelQueued {
		e.wheelUnlink(id.slot)
	} else {
		e.removeAt(int(ev.heapIdx))
	}
	e.release(id.slot)
}

// release returns a slot to the free-list, dropping its handler so the
// engine does not pin the closure (and whatever it captures) until reuse.
func (e *Engine) release(slot int32) {
	ev := &e.slots[slot]
	ev.fn = nil
	ev.gen++
	ev.link = e.freeHead
	e.freeHead = slot
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetWheelEnabled turns the timing-wheel path on (the default) or off.
// With the wheel off, TimerAfter/RearmAfter/RearmAt route through the
// heap — behaviorally identical by the ordering contract, just slower
// under timer churn. Disabling drains any parked timers into the heap
// first, so the switch is safe at any quiescent point. This exists for
// differential tests and heap-only benchmark baselines.
func (e *Engine) SetWheelEnabled(on bool) {
	if !on && e.wheelCount > 0 {
		for l := range e.wheel {
			w := &e.wheel[l]
			for w.occupied != 0 {
				idx := bits.TrailingZeros64(w.occupied)
				w.occupied &^= 1 << uint(idx)
				for s := w.head[idx]; s >= 0; {
					next := e.slots[s].link
					e.wheelCount--
					e.heapPush(s)
					s = next
				}
			}
		}
	}
	e.wheelOff = !on
}

// Pending reports the number of events currently scheduled, counting
// each non-empty lane once: a lane is one pending merge source, however
// many events it queues.
func (e *Engine) Pending() int { return len(e.heap) + e.wheelCount + e.laneLive }

// NextEventTime reports the timestamp of the earliest pending event, and
// false when the queue is empty. The sharded coordinator uses it to size
// conservative time windows (skip ahead when every shard is idle); the
// reported time is exact — wheel slots that could precede the front are
// flushed first — so window sizing is identical to a heap-only run.
func (e *Engine) NextEventTime() (Time, bool) {
	s, _ := e.front()
	if s == nil {
		return 0, false
	}
	return s.at, true
}

// front locates the earliest pending event once per step: it takes the
// least lane head, flushes every wheel slot that could rank before it or
// the heap root, and returns the winner's stamp and its lane index (-1
// for the heap root), or a nil stamp when nothing is pending.
func (e *Engine) front() (*stamp, int) {
	lane := -1
	var best *stamp
	if e.laneLive > 0 {
		lane = 0
		best = &e.lanes[0].stamp
		for i := 1; i < len(e.lanes); i++ {
			if e.lanes[i].less(best) {
				best, lane = &e.lanes[i].stamp, i
			}
		}
	}
	if e.wheelCount > 0 {
		bound := laneEmpty.at
		if best != nil {
			bound = best.at
		}
		e.syncWheel(bound)
	}
	if len(e.heap) > 0 && (best == nil || e.heap[0].less(best)) {
		return &e.heap[0].stamp, -1
	}
	return best, lane
}

// wheelInsert parks an already-filled event slot in the wheel, or pushes
// it onto the heap when the wheel is off, the deadline is not strictly
// beyond the wheel's current tick, or the horizon exceeds the wheel's
// range.
func (e *Engine) wheelInsert(slot int32) {
	if e.wheelOff {
		e.heapPush(slot)
		return
	}
	if e.wheelCount == 0 {
		// Empty wheel: re-anchor at the present so a long-idle engine
		// doesn't file near-term timers into far-out levels.
		if t := int64(e.now) >> wheelTickShift; t > e.wheelTick {
			e.wheelTick = t
		}
	}
	ev := &e.slots[slot]
	tick := int64(ev.at) >> wheelTickShift
	if tick <= e.wheelTick {
		e.heapPush(slot)
		return
	}
	lvl := (bits.Len64(uint64(tick^e.wheelTick)) - 1) / wheelBits
	if lvl >= wheelLevels {
		e.heapPush(slot)
		return
	}
	idx := int(tick>>(uint(lvl)*wheelBits)) & wheelMask
	w := &e.wheel[lvl]
	if w.occupied&(1<<uint(idx)) != 0 {
		head := w.head[idx]
		ev.link = head
		e.slots[head].wprev = slot
	} else {
		ev.link = -1
		w.occupied |= 1 << uint(idx)
	}
	ev.wprev = -1
	w.head[idx] = slot
	ev.wslot = int16(lvl*wheelSlots + idx)
	ev.heapIdx = wheelQueued
	e.wheelCount++
}

// wheelUnlink removes a parked event from its wheel slot list in O(1).
func (e *Engine) wheelUnlink(slot int32) {
	ev := &e.slots[slot]
	lvl, idx := int(ev.wslot)/wheelSlots, int(ev.wslot)%wheelSlots
	w := &e.wheel[lvl]
	if ev.wprev >= 0 {
		e.slots[ev.wprev].link = ev.link
	} else if ev.link >= 0 {
		w.head[idx] = ev.link
	} else {
		w.occupied &^= 1 << uint(idx)
	}
	if ev.link >= 0 {
		e.slots[ev.link].wprev = ev.wprev
	}
	ev.heapIdx = -1
	e.wheelCount--
}

// wheelEarliest locates the wheel's earliest occupied slot and the first
// level-0 tick its range covers. Slot starts are strictly layered by
// level (all level-l slot ranges precede every level-(l+1) slot start,
// given inserts anchored at wheelTick), so the first non-empty level owns
// the global minimum; within a level the next occupied slot at or after
// wheelTick's position falls out of one rotate + trailing-zeros.
func (e *Engine) wheelEarliest() (lvl, idx int, startTick int64) {
	for l := 0; l < wheelLevels; l++ {
		occ := e.wheel[l].occupied
		if occ == 0 {
			continue
		}
		shift := uint(l) * wheelBits
		cur := e.wheelTick >> shift
		base := int(cur) & wheelMask
		d := bits.TrailingZeros64(bits.RotateLeft64(occ, -base))
		return l, (base + d) & wheelMask, (cur + int64(d)) << shift
	}
	panic("eventsim: wheelEarliest on empty wheel")
}

// syncWheel flushes wheel slots into the heap until the front — the
// heap's head or bound, the earliest lane head's time — is strictly
// earlier than every parked timer: the point at which popping the front
// is provably identical to a heap-only engine. Level-0 slots flush
// straight to the heap; higher slots cascade their events down a level
// (or to the heap once due). wheelTick only ever advances, and never past
// an occupied slot's start.
func (e *Engine) syncWheel(bound Time) {
	for e.wheelCount > 0 {
		lvl, idx, startTick := e.wheelEarliest()
		start := Time(startTick << wheelTickShift)
		if bound < start || len(e.heap) > 0 && e.heap[0].at < start {
			return
		}
		if startTick > e.wheelTick {
			e.wheelTick = startTick
		}
		w := &e.wheel[lvl]
		head := w.head[idx]
		w.occupied &^= 1 << uint(idx)
		for s := head; s >= 0; {
			next := e.slots[s].link
			e.wheelCount--
			if lvl == 0 {
				e.heapPush(s)
			} else {
				e.wheelInsert(s)
			}
			s = next
		}
	}
}

// Step executes the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	s, lane := e.front()
	if s == nil {
		return false
	}
	e.fire(lane)
	return true
}

// fire executes the front event front just located: the head of lane,
// or the heap root when lane is -1.
func (e *Engine) fire(lane int) {
	e.Processed++
	if lane >= 0 {
		ref := &e.lanes[lane]
		e.now = ref.at
		ref.lane.fire()
		return
	}
	slot := e.popMin()
	ev := &e.slots[slot]
	e.now = ev.at
	fn := ev.fn
	// Release before invoking: the handler may reschedule into the same
	// slot, and by then its own EventID must already be stale.
	e.release(slot)
	fn()
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to exactly deadline. Events scheduled beyond deadline remain queued
// so the simulation can be resumed.
func (e *Engine) RunUntil(deadline Time) {
	e.runThrough(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before horizon, then
// advances the clock to exactly horizon. This is the window-execution
// primitive of the sharded runtime: events at horizon itself stay queued,
// so cross-shard arrivals landing exactly on a window boundary can still
// be merged ahead of (or behind) them in structural-key order before the
// next window runs.
func (e *Engine) RunBefore(horizon Time) {
	e.runThrough(horizon - 1)
	if e.now < horizon {
		e.now = horizon
	}
}

// runThrough executes events with timestamps ≤ last until Stop.
func (e *Engine) runThrough(last Time) {
	e.stopped = false
	for !e.stopped {
		s, lane := e.front()
		if s == nil || s.at > last {
			return
		}
		e.fire(lane)
	}
}

// popMin removes and returns the root slot.
func (e *Engine) popMin() int32 {
	top := e.heap[0].slot
	last := len(e.heap) - 1
	if last > 0 {
		moved := e.heap[last]
		e.heap = e.heap[:last]
		e.siftDown(0, moved)
	} else {
		e.heap = e.heap[:0]
	}
	e.slots[top].heapIdx = -1
	return top
}

// removeAt deletes the heap entry at position i (indexed removal for
// Cancel): the last entry takes its place and sifts whichever way the
// ordering demands.
func (e *Engine) removeAt(i int) {
	last := len(e.heap) - 1
	slot := e.heap[i].slot
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if i < last && !e.siftUp(i, moved) {
		e.siftDown(i, moved)
	}
	e.slots[slot].heapIdx = -1
}

// siftUp files x into the hole at position i, first moving the hole
// toward the root past every parent x ranks before; it records each moved
// slot's new position and reports whether the hole moved. Parents shift
// down into the hole, so each level costs one entry copy and no swap.
func (e *Engine) siftUp(i int, x heapEntry) bool {
	start := i
	for i > 0 {
		parent := (i - 1) >> 2
		if !x.less(&e.heap[parent].stamp) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.slots[e.heap[i].slot].heapIdx = int32(i)
		i = parent
	}
	e.heap[i] = x
	e.slots[x.slot].heapIdx = int32(i)
	return i != start
}

// siftDown files x into the hole at position i, first moving the hole
// toward the leaves past the smallest child while that child ranks
// before x.
func (e *Engine) siftDown(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[best].stamp) {
				best = c
			}
		}
		if !h[best].less(&x.stamp) {
			break
		}
		h[i] = h[best]
		e.slots[h[i].slot].heapIdx = int32(i)
		i = best
	}
	h[i] = x
	e.slots[x.slot].heapIdx = int32(i)
}

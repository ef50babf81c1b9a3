package eventsim

import (
	"fmt"
	"testing"
)

// laneArm replays one script with every keyed event either scheduled on
// the heap (ScheduleKeyed) or pushed onto one of three lanes, interleaved
// with plain events, wheel timers, rearms, cancels and partial runs. The
// two arms must log the same pop stream.
type laneArm struct {
	eng   *Engine
	lanes []*Lane[laneEvent] // nil: the ScheduleKeyed arm
	log   []string
	ids   []EventID
}

// laneEvent is one keyed event: its tag, its lane and key, and the delay
// of the follow-up it files when it fires (0: none).
type laneEvent struct {
	tag, lane int
	key       uint64
	chain     Time
}

func newLaneArm(lanes bool) *laneArm {
	r := &laneArm{eng: NewEngine(1)}
	if lanes {
		for i := 0; i < 3; i++ {
			r.lanes = append(r.lanes, NewLane(r.eng, r.fired))
		}
	}
	return r
}

func (r *laneArm) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

// keyed files ev at at, on the heap or on its lane.
func (r *laneArm) keyed(at Time, ev laneEvent) {
	if r.lanes == nil {
		r.eng.ScheduleKeyed(at, ev.key, func() { r.fired(ev) })
		return
	}
	r.lanes[ev.lane].Push(at, ev.key, ev)
}

// fired logs a keyed event and files its follow-up, which a lane takes
// from inside its own handler.
func (r *laneArm) fired(ev laneEvent) {
	r.logf("k%d@%d", ev.tag, r.eng.Now())
	if ev.chain > 0 {
		next := ev
		next.tag += 1 << 20
		next.chain = 0
		r.keyed(r.eng.Now()+ev.chain, next)
	}
}

// run decodes script in four-byte ops (op, a, b, c) and drains the engine.
func (r *laneArm) run(script []byte) {
	for tag := 0; len(script) >= 4; script, tag = script[4:], tag+1 {
		op, a, b, c := int(script[0])%8, Time(script[1]), int(script[2]), int(script[3])
		now := r.eng.Now()
		tag := tag
		fn := func() { r.logf("%d@%d", tag, r.eng.Now()) }
		switch op {
		case 0:
			r.ids = append(r.ids, r.eng.Schedule(now+a*Microsecond/4, fn))
		case 1:
			ev := laneEvent{tag: tag, lane: c % 3, key: uint64(b % 3)}
			if c >= 128 {
				ev.chain = Time(c%8+1) * Microsecond / 8
			}
			r.keyed(now+a*Microsecond/4, ev)
		case 2:
			r.ids = append(r.ids, r.eng.TimerAfter(a*Time(b+1)*Microsecond/16, fn))
		case 3:
			var id EventID
			if len(r.ids) > 0 {
				id = r.ids[b%len(r.ids)]
			}
			r.ids = append(r.ids, r.eng.RearmAfter(id, a*Microsecond/4, fn))
		case 4:
			if len(r.ids) > 0 {
				r.eng.Cancel(r.ids[b%len(r.ids)])
			}
		case 5:
			for i := 0; i < c%4 && r.eng.Step(); i++ {
			}
		case 6:
			if b%2 == 0 {
				r.eng.RunUntil(now + a*Microsecond/8)
			} else {
				r.eng.RunBefore(now + a*Microsecond/8)
			}
			r.logf("run@%d", r.eng.Now())
		case 7:
			t, ok := r.eng.NextEventTime()
			r.logf("next %v %d", ok, t)
		}
	}
	r.eng.Run()
}

// diffLanes runs script through both arms and fails at the first pop the
// lanes order differently from per-event ScheduleKeyed scheduling.
func diffLanes(t *testing.T, script []byte) {
	t.Helper()
	keyed, laned := newLaneArm(false), newLaneArm(true)
	keyed.run(script)
	laned.run(script)
	for i := 0; i < len(keyed.log) && i < len(laned.log); i++ {
		if keyed.log[i] != laned.log[i] {
			t.Fatalf("pop %d: keyed %q, lanes %q", i, keyed.log[i], laned.log[i])
		}
	}
	if len(keyed.log) != len(laned.log) {
		t.Fatalf("pop stream length: keyed %d, lanes %d", len(keyed.log), len(laned.log))
	}
	if keyed.eng.Processed != laned.eng.Processed {
		t.Fatalf("processed: keyed %d, lanes %d", keyed.eng.Processed, laned.eng.Processed)
	}
	if n := laned.eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after drain", n)
	}
}

// FuzzLaneVsKeyed checks the lane rule on arbitrary scripts: keyed events
// pushed onto three lanes in any time order, some re-filing from inside
// their own handler, interleaved with heap events, wheel timers, rearms,
// cancels, partial runs and NextEventTime probes, pop exactly as
// per-event ScheduleKeyed calls would.
func FuzzLaneVsKeyed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 8, 0, 0, 1, 8, 1, 1, 1, 8, 0, 2, 2, 120, 0, 0, 1, 4, 2, 200, 7, 0, 0, 0, 6, 30, 0, 0, 5, 0, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		diffLanes(t, script)
	})
}

// TestScheduleReservedMatchesKeyed checks the lane rule on seeded
// pseudo-random scripts: an event queued on a lane under the sequence
// number reserved when it was pushed pops in exactly the position a
// ScheduleKeyed issued at that moment would have.
func TestScheduleReservedMatchesKeyed(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		script := make([]byte, 400+int(seed)*8)
		NewEngine(seed + 3000).Rand().Read(script)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { diffLanes(t, script) })
	}
}

// TestScheduleReservedTieOrder pins one contended instant: a lane entry
// pushed first ranks first among same-(at, key) events even though it is
// never filed on the heap, a later same-instant entry with a smaller key
// is inserted ahead of it, and a lane counts once in Pending however many
// events it holds.
func TestScheduleReservedTieOrder(t *testing.T) {
	eng := NewEngine(1)
	at := 10 * Microsecond
	var got []string
	lane := NewLane(eng, func(s string) { got = append(got, s) })
	rec := func(s string) Handler { return func() { got = append(got, s) } }
	lane.Push(at, 1, "lane")
	eng.TimerAfter(at, rec("timer"))
	eng.ScheduleKeyed(at, 1, rec("plain"))
	lane.Push(at, 0, "lane-key0")
	lane.Push(at+1, 0, "lane-later")
	if n := eng.Pending(); n != 3 {
		t.Errorf("Pending = %d, want 3 (timer, plain, one lane)", n)
	}
	if next, ok := eng.NextEventTime(); !ok || next != at {
		t.Errorf("NextEventTime = %v %v, want %v", next, ok, at)
	}
	eng.Run()
	want := "[timer lane-key0 lane plain lane-later]"
	if fmt.Sprint(got) != want {
		t.Fatalf("pop order %v, want %s", got, want)
	}
	if eng.Pending() != 0 || lane.Len() != 0 {
		t.Fatalf("Pending %d, lane %d after drain", eng.Pending(), lane.Len())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Push accepted a time in the past")
		}
	}()
	lane.Push(eng.Now()-1, 0, "past")
}

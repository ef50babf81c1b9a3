package eventsim

import (
	"fmt"
	"testing"
)

// reservedArm replays one script with every keyed event scheduled either
// at once (ScheduleKeyed) or under a reserved seq filed only when it
// could be next (ReserveSeq now, ScheduleReserved later) — the way a
// link's wire holds in-flight packets off the heap.
type reservedArm struct {
	eng      *Engine
	deferred bool
	log      []string
	ids      []EventID
	held     []heldEvent
}

// heldEvent is a keyed event whose seq was reserved but which is not yet
// filed with the engine.
type heldEvent struct {
	at       Time
	key, seq uint64
	fn       Handler
}

func (r *reservedArm) fire(tag int) Handler {
	return func() { r.log = append(r.log, fmt.Sprintf("%d@%d", tag, r.eng.Now())) }
}

// fileDue files every held event that could rank at or before the
// engine's next event. A held event later than that instant cannot be
// next, so it stays off the heap while time advances.
func (r *reservedArm) fileDue() {
	next, ok := r.eng.NextEventTime()
	kept := r.held[:0]
	for _, h := range r.held {
		if ok && h.at > next {
			kept = append(kept, h)
			continue
		}
		r.eng.ScheduleReserved(h.at, h.key, h.seq, h.fn)
	}
	r.held = kept
}

func (r *reservedArm) step() bool {
	if r.deferred {
		r.fileDue()
	}
	return r.eng.Step()
}

// run decodes script in four-byte ops: plain, keyed, wheel timer, rearm,
// cancel, or a few steps. Keyed events are the ones the two arms file
// differently.
func (r *reservedArm) run(script []byte) {
	tag := 0
	for ; len(script) >= 4; script = script[4:] {
		op, a, b, c := int(script[0])%6, Time(script[1]), int(script[2]), int(script[3])
		now := r.eng.Now()
		fn := r.fire(tag)
		tag++
		switch op {
		case 0:
			r.ids = append(r.ids, r.eng.Schedule(now+a*Microsecond/4, fn))
		case 1:
			at, key := now+a*Microsecond/4, uint64(b%3)
			if r.deferred {
				r.held = append(r.held, heldEvent{at: at, key: key, seq: r.eng.ReserveSeq(), fn: fn})
			} else {
				r.eng.ScheduleKeyed(at, key, fn)
			}
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
			for i := 0; i < c%4 && r.step(); i++ {
			}
		}
	}
	for r.step() {
	}
}

// TestScheduleReservedMatchesKeyed checks the reserved-sequence rule: an
// event filed under a seq reserved at time t pops in exactly the
// position a ScheduleKeyed issued at t would have, interleaved with heap
// events, wheel timers and rearms scheduled in between.
func TestScheduleReservedMatchesKeyed(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		script := make([]byte, 400+int(seed)*8)
		NewEngine(seed + 3000).Rand().Read(script)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			now := &reservedArm{eng: NewEngine(1)}
			later := &reservedArm{eng: NewEngine(1), deferred: true}
			now.run(script)
			later.run(script)
			if len(now.log) != len(later.log) {
				t.Fatalf("pop stream length: keyed %d, reserved %d", len(now.log), len(later.log))
			}
			for i := range now.log {
				if now.log[i] != later.log[i] {
					t.Fatalf("pop %d: keyed %q, reserved %q", i, now.log[i], later.log[i])
				}
			}
			if now.eng.Processed != later.eng.Processed {
				t.Fatalf("processed: keyed %d, reserved %d", now.eng.Processed, later.eng.Processed)
			}
		})
	}
}

// TestScheduleReservedTieOrder pins one contended instant: a seq reserved
// first ranks first among same-(at, key) events even when filed last, a
// cancelled filing can be filed again, and a seq never handed out is
// rejected.
func TestScheduleReservedTieOrder(t *testing.T) {
	eng := NewEngine(1)
	at := 10 * Microsecond
	var got []string
	rec := func(s string) Handler { return func() { got = append(got, s) } }
	seq := eng.ReserveSeq()
	eng.TimerAfter(at, rec("timer"))
	eng.Schedule(at, rec("plain"))
	id := eng.ScheduleReserved(at, 0, seq, rec("stale"))
	eng.Cancel(id)
	eng.ScheduleReserved(at, 0, seq, rec("reserved"))
	eng.Run()
	want := "[reserved timer plain]"
	if fmt.Sprint(got) != want {
		t.Fatalf("pop order %v, want %s", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleReserved accepted a seq that was never reserved")
		}
	}()
	eng.ScheduleReserved(eng.Now(), 0, seq+100, func() {})
}

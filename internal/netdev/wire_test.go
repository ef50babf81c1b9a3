package netdev

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/eventsim"
)

// wireDeparture is one packet put on the wire, as the reference model
// sees it: when it left the port and when per-packet scheduling would
// have delivered it.
type wireDeparture struct {
	pkt *Packet
	at  eventsim.Time
}

// wireRig drives one port from a byte script and records every departure
// and every arrival, so a run can be checked against the stream
// per-packet scheduling produced: arrivals sorted by time, ties in
// departure order.
type wireRig struct {
	eng  *eventsim.Engine
	port *EgressPort
	dst  *sink
	deps []wireDeparture
	sent int
}

func newWireRig() *wireRig {
	eng := eventsim.NewEngine(5)
	port := NewEgressPort(eng, 100e9, 5*eventsim.Microsecond, eng.Rand())
	dst := &sink{eng: eng}
	port.SetPeer(dst, 0)
	r := &wireRig{eng: eng, port: port, dst: dst}
	// A data packet's arrival is its departure plus the delay the port
	// captured when its serialization started.
	port.SetOnDeparted(func(pkt *Packet, _ int) {
		r.deps = append(r.deps, wireDeparture{pkt: pkt, at: eng.Now() + port.inflightDl})
	})
	return r
}

func (r *wireRig) enqueue(wireBytes int) {
	r.sent++
	r.port.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: wireBytes, Seq: int64(r.sent)}, -1)
}

// sendPFC emits a PFC frame and records its departure: it pays only its
// own serialization and the propagation delay.
func (r *wireRig) sendPFC() {
	r.sent++
	at := r.eng.Now() + r.port.serialization(CtrlFrameBytes) + r.port.prop
	r.port.SendPFC(r.sent%2 == 0, ClassData)
	// The frame holds the wire's newest reservation; a sorted insert may
	// have put it anywhere in the queue.
	w := &r.port.wire
	newest := w.head
	for i := w.head; i < len(w.q); i++ {
		if w.q[i].seq > w.q[newest].seq {
			newest = i
		}
	}
	r.deps = append(r.deps, wireDeparture{pkt: w.q[newest].pkt, at: at})
}

// Wire-order script ops. Each op takes three bytes (op, a, b) and every
// byte string decodes to a valid script.
const (
	wopEnqueue = iota // data packet of 64..4159 bytes
	wopAdvance        // run a·b ns ahead
	wopPFC            // PFC frame now
	wopPFCLast        // jump to 1 ns before the next event, then PFC
	wopDegrade        // extraDelay a·20 ns (0 heals), rate factor 1 or 1/2
	wopLink           // toggle the link
	wopStep           // execute one event
	wopCount
)

// run decodes and applies script, drains the port, and checks the
// arrivals against the reference stream.
func (r *wireRig) run(t *testing.T, script []byte) {
	t.Helper()
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := int(script[0])%wopCount, int(script[1]), int(script[2])
		switch op {
		case wopEnqueue:
			r.enqueue(64 + a<<4 + b%16)
		case wopAdvance:
			r.eng.RunUntil(r.eng.Now() + eventsim.Time(a*b))
		case wopPFC:
			r.sendPFC()
		case wopPFCLast:
			if next, ok := r.eng.NextEventTime(); ok && next > r.eng.Now() {
				r.eng.RunUntil(next - 1)
			}
			r.sendPFC()
		case wopDegrade:
			factor := 1.0
			if b%2 == 1 {
				factor = 0.5
			}
			r.port.SetDegradation(factor, eventsim.Time(a)*20)
		case wopLink:
			r.port.SetLinkUp(!r.port.LinkUp())
		case wopStep:
			r.eng.Step()
		}
		if got, want := r.port.InFlightPackets(), r.sent-len(r.dst.pkts); got != want {
			t.Fatalf("InFlightPackets = %d, want %d (sent %d, arrived %d)", got, want, r.sent, len(r.dst.pkts))
		}
	}
	r.port.SetLinkUp(true)
	r.port.SetDegradation(1, 0)
	r.eng.Run()

	if len(r.dst.pkts) != r.sent || len(r.deps) != r.sent {
		t.Fatalf("sent %d, departed %d, arrived %d", r.sent, len(r.deps), len(r.dst.pkts))
	}
	if n := r.port.InFlightPackets(); n != 0 {
		t.Fatalf("InFlightPackets = %d after drain", n)
	}
	want := append([]wireDeparture(nil), r.deps...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i := range want {
		if r.dst.pkts[i] != want[i].pkt || r.dst.times[i] != want[i].at {
			t.Fatalf("arrival %d: got seq %d at %v, want seq %d at %v",
				i, r.dst.pkts[i].Seq, r.dst.times[i], want[i].pkt.Seq, want[i].at)
		}
	}
}

// FuzzWireOrder checks the wire against per-packet scheduling on
// arbitrary scripts of enqueues, PFC frames (including in the last ns of
// a serialization), degradation raised and healed mid-flight, and link
// flaps: every packet arrives at its departure plus its captured delay,
// and same-instant arrivals keep departure order. The seed corpus in
// testdata/fuzz/FuzzWireOrder holds the two non-monotone cases as
// scripts: pfc-overtaken (a 1000-byte frame, then a PFC frame in its last
// ns, twice) and heal-mid-flight (three frames under +2 µs extra delay,
// healed while they are on the wire, then three more, a PFC frame and a
// link flap).
func FuzzWireOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*512 {
			script = script[:3*512]
		}
		newWireRig().run(t, script)
	})
}

// TestWireRandomScripts replays seeded pseudo-random scripts so the
// differential check covers more than the seed corpus in plain `go test`.
func TestWireRandomScripts(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := eventsim.NewEngine(seed + 7000).Rand()
		script := make([]byte, 3*(50+rng.Intn(200)))
		rng.Read(script)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { newWireRig().run(t, script) })
	}
}

// TestWirePFCOvertakenByData pins the first non-monotone case: a PFC
// frame sent in the last nanosecond of a data frame's serialization
// arrives after that frame, which becomes the new head of the wire.
func TestWirePFCOvertakenByData(t *testing.T) {
	eng, p, dst := newPort(t, 100e9, eventsim.Microsecond)
	p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: 1000}, -1) // 80 ns
	eng.RunUntil(79)
	p.SendPFC(true, ClassData) // 5 ns + 1 µs → 1084
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.pkts))
	}
	if dst.pkts[0].Kind != KindData || dst.times[0] != 1080 {
		t.Errorf("first arrival %v at %v, want data at 1080", dst.pkts[0].Kind, dst.times[0])
	}
	if dst.pkts[1].Kind != KindPFC || dst.times[1] != 1084 {
		t.Errorf("second arrival %v at %v, want PFC at 1084", dst.pkts[1].Kind, dst.times[1])
	}
}

// TestWireDegradationHealedMidFlight pins the second: a packet that left
// under a large extra delay is overtaken by one sent after the heal.
func TestWireDegradationHealedMidFlight(t *testing.T) {
	eng, p, dst := newPort(t, 1e9, eventsim.Microsecond)
	p.SetDegradation(1, 20*eventsim.Microsecond)
	p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: 1250, Seq: 1}, -1) // 10 µs
	eng.RunUntil(10 * eventsim.Microsecond)
	p.SetDegradation(1, 0)
	p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: 1250, Seq: 2}, -1)
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.pkts))
	}
	if dst.pkts[0].Seq != 2 || dst.times[0] != 21*eventsim.Microsecond {
		t.Errorf("first arrival seq %d at %v, want seq 2 at 21µs", dst.pkts[0].Seq, dst.times[0])
	}
	if dst.pkts[1].Seq != 1 || dst.times[1] != 31*eventsim.Microsecond {
		t.Errorf("second arrival seq %d at %v, want seq 1 at 31µs", dst.pkts[1].Seq, dst.times[1])
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events pending after drain", eng.Pending())
	}
}

// TestWireOneEventPerLink checks the point of the wire: however many
// packets are in flight, the link holds one engine event.
func TestWireOneEventPerLink(t *testing.T) {
	eng, p, dst := newPort(t, 100e9, 5*eventsim.Microsecond)
	for i := 0; i < 64; i++ {
		p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: DefaultMTU}, -1)
	}
	eng.RunUntil(5 * eventsim.Microsecond)
	if n := p.wire.Len(); n < 50 {
		t.Fatalf("%d packets on the wire, want a full pipe", n)
	}
	// One transmitter timer plus the head of the wire.
	if n := eng.Pending(); n != 2 {
		t.Errorf("%d events pending, want 2", n)
	}
	eng.Run()
	if len(dst.pkts) != 64 {
		t.Fatalf("delivered %d packets, want 64", len(dst.pkts))
	}
}

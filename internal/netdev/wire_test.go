package netdev

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/eventsim"
)

// wireDeparture is one packet put on a link, as the reference model sees
// it: when per-packet scheduling would have delivered it.
type wireDeparture struct {
	pkt *Packet
	at  eventsim.Time
}

// wirePorts is the number of ports the rig drives over one lane set.
const wirePorts = 2

// wireRig drives two ports on one engine from a byte script. The ports
// share one lane set, so their in-flight packets share lanes. The rig
// records every departure and every arrival, so a run can be checked
// against the stream per-packet scheduling produced: arrivals sorted by
// time, ties in departure order across both ports.
type wireRig struct {
	eng   *eventsim.Engine
	lanes *Lanes
	pool  *PacketPool
	ports [wirePorts]*EgressPort
	dst   *sink
	deps  []wireDeparture
	sent  int
}

func newWireRig() *wireRig {
	eng := eventsim.NewEngine(5)
	r := &wireRig{eng: eng, lanes: NewLanes(eng), pool: NewPacketPool(), dst: &sink{eng: eng}}
	for i := range r.ports {
		port := NewEgressPort(eng, 100e9, 5*eventsim.Microsecond, eng.Rand())
		port.SetPacketPool(r.pool)
		port.SetLanes(r.lanes)
		port.SetPeer(r.dst, i)
		// A data packet's arrival is its departure plus the delay the
		// port captured when its serialization started.
		port.SetOnDeparted(func(pkt *Packet, _ int) {
			r.deps = append(r.deps, wireDeparture{pkt: pkt, at: eng.Now() + port.inflightLn.delay})
		})
		r.ports[i] = port
	}
	return r
}

func (r *wireRig) enqueue(port *EgressPort, wireBytes int) {
	r.sent++
	port.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: wireBytes, Seq: int64(r.sent)}, -1)
}

// sendPFC emits a PFC frame and records its departure: it pays only its
// own serialization and the propagation delay. The pool is stocked with
// a fresh frame first, so the frame SendPFC draws is known.
func (r *wireRig) sendPFC(port *EgressPort) {
	r.sent++
	frame := &Packet{}
	r.pool.Put(frame)
	at := r.eng.Now() + port.serialization(CtrlFrameBytes) + port.prop
	port.SendPFC(r.sent%2 == 0, ClassData)
	r.deps = append(r.deps, wireDeparture{pkt: frame, at: at})
}

// inFlight counts the packets the ports and lanes hold.
func (r *wireRig) inFlight() int {
	n := r.lanes.Len()
	for _, p := range r.ports {
		n += p.InFlightPackets()
	}
	return n
}

// Wire-order script ops. Each op takes three bytes (op, a, b): op%wopCount
// picks the op and op/wopCount%wirePorts the port it acts on. Every byte
// string decodes to a valid script.
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

// run decodes and applies script, drains the ports, and checks the
// arrivals against the reference stream.
func (r *wireRig) run(t *testing.T, script []byte) {
	t.Helper()
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := int(script[0])%wopCount, int(script[1]), int(script[2])
		port := r.ports[int(script[0])/wopCount%wirePorts]
		switch op {
		case wopEnqueue:
			r.enqueue(port, 64+a<<4+b%16)
		case wopAdvance:
			r.eng.RunUntil(r.eng.Now() + eventsim.Time(a*b))
		case wopPFC:
			r.sendPFC(port)
		case wopPFCLast:
			if next, ok := r.eng.NextEventTime(); ok && next > r.eng.Now() {
				r.eng.RunUntil(next - 1)
			}
			r.sendPFC(port)
		case wopDegrade:
			factor := 1.0
			if b%2 == 1 {
				factor = 0.5
			}
			port.SetDegradation(factor, eventsim.Time(a)*20)
		case wopLink:
			port.SetLinkUp(!port.LinkUp())
		case wopStep:
			r.eng.Step()
		}
		if got, want := r.inFlight(), r.sent-len(r.dst.pkts); got != want {
			t.Fatalf("in flight = %d, want %d (sent %d, arrived %d)", got, want, r.sent, len(r.dst.pkts))
		}
	}
	for _, p := range r.ports {
		p.SetLinkUp(true)
		p.SetDegradation(1, 0)
	}
	r.eng.Run()

	if len(r.dst.pkts) != r.sent || len(r.deps) != r.sent {
		t.Fatalf("sent %d, departed %d, arrived %d", r.sent, len(r.deps), len(r.dst.pkts))
	}
	if n := r.inFlight(); n != 0 {
		t.Fatalf("in flight = %d after drain", n)
	}
	if n := r.eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after drain", n)
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

// FuzzWireOrder checks shared delivery lanes against per-packet
// scheduling on arbitrary scripts over two ports: enqueues, PFC frames
// (including in the last ns of a serialization), degradation raised and
// healed mid-flight, and link flaps. Every packet arrives at its
// departure plus its captured delay, and same-instant arrivals keep
// departure order. The seed corpus in testdata/fuzz/FuzzWireOrder holds
// the two cases where one link's arrivals overtake each other:
// pfc-overtaken (1000-byte frames on both ports, each followed by a PFC
// frame in the last ns of a serialization, which the frame overtakes)
// and heal-mid-flight (frames on both ports under +2 µs extra delay, one
// port healed while they are in flight and more frames sent, a PFC
// frame, a link flap, then the other port healed).
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

// TestWirePFCOvertakenByData pins the first case where a link's arrivals
// overtake each other: a PFC frame sent in the last nanosecond of a data
// frame's serialization arrives after that frame. The two ride different
// lanes, and the engine's merge orders them.
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
// under a large extra delay, on that delay's lane, is overtaken by one
// sent after the heal on the propagation-delay lane.
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

// TestLanesOnePendingPerDelay checks the point of shared lanes: however
// many packets two ports have in flight, the ones sharing a delivery delay
// sit on one lane, which the engine counts as one pending event, and
// none of them is on the heap.
func TestLanesOnePendingPerDelay(t *testing.T) {
	r := newWireRig()
	for i := 0; i < 64; i++ {
		for _, p := range r.ports {
			r.enqueue(p, DefaultMTU)
		}
	}
	r.eng.RunUntil(5 * eventsim.Microsecond)
	if n := r.lanes.Len(); n < 100 {
		t.Fatalf("%d packets in flight, want two full pipes", n)
	}
	// One transmitter timer per port plus the shared data lane.
	if n := r.eng.Pending(); n != wirePorts+1 {
		t.Errorf("%d events pending, want %d", n, wirePorts+1)
	}
	r.eng.Run()
	if len(r.dst.pkts) != 64*wirePorts {
		t.Fatalf("delivered %d packets, want %d", len(r.dst.pkts), 64*wirePorts)
	}
}

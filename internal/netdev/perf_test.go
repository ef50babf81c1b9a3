package netdev

import (
	"math/rand"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// poolSink terminates packets the way a host RNIC does: count, bump a
// telemetry counter (the forward path must stay zero-alloc with the
// instrumentation that production devices run per packet), and recycle.
type poolSink struct {
	pool     *PacketPool
	counter  *telemetry.Counter
	received int64
	bytes    int64
}

func (s *poolSink) Receive(pkt *Packet, inPort int) {
	s.received++
	s.bytes += int64(pkt.WireBytes)
	if s.counter != nil {
		s.counter.Inc()
	}
	s.pool.Put(pkt)
}

// forwardRig is a minimal one-hop data path: pooled packets enqueued on an
// egress port, serialized, propagated, and sunk back into the pool.
type forwardRig struct {
	eng  *eventsim.Engine
	pool *PacketPool
	port *EgressPort
	sink *poolSink
}

func newForwardRig(counter *telemetry.Counter, prop eventsim.Time) *forwardRig {
	eng := eventsim.NewEngine(1)
	pool := NewPacketPool()
	port := NewEgressPort(eng, 100e9, prop, rand.New(rand.NewSource(1)))
	port.SetPacketPool(pool)
	port.SetLanes(NewLanes(eng))
	sink := &poolSink{pool: pool, counter: counter}
	port.SetPeer(sink, 0)
	return &forwardRig{eng: eng, pool: pool, port: port, sink: sink}
}

// sendOne pushes one pooled data packet through the whole path: Enqueue →
// transmit → txDone → delivery → sink → pool.Put.
func (r *forwardRig) sendOne(seq int64) {
	pkt := r.pool.NewDataPacket(1, 0, 1, seq, DefaultMTU, false)
	r.port.Enqueue(pkt, -1)
	r.eng.Run()
}

// burstLen is the burst the wire-depth variants send: 64 MTU frames
// back-to-back, about as many as a 100 Gbps, 5 µs link holds in flight.
const burstLen = 64

// sendBurst enqueues burstLen pooled frames at once and runs until the
// last has been sunk, so the wire fills to its full depth and drains.
func (r *forwardRig) sendBurst() {
	for i := int64(0); i < burstLen; i++ {
		r.port.Enqueue(r.pool.NewDataPacket(1, 0, 1, i, DefaultMTU, false), -1)
	}
	r.eng.Run()
}

// TestPortForwardZeroAlloc pins the acceptance criterion for the packet
// free-lists: once the pool, the delivery lane, and the engine's
// event slab are warm, forwarding a data packet — including the per-packet
// telemetry counter increment — allocates nothing.
func TestPortForwardZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	rig := newForwardRig(reg.Counter("test_rx_packets_total", "packets sunk by the test rig"), eventsim.Microsecond)
	for i := int64(0); i < 256; i++ {
		rig.sendOne(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rig.sendOne(0)
	})
	if allocs != 0 {
		t.Fatalf("data-packet forward path allocates %.1f per packet in steady state, want 0", allocs)
	}
	if rig.pool.Recycled == 0 {
		t.Fatal("pool never recycled a packet; sink is not returning them")
	}
}

// TestPortForwardBurstZeroAlloc pins the delivery lane's steady state at
// depth: a burst fills a 100 Gbps, 5 µs link with ~60 frames in flight,
// and once warm, pushing it through allocates nothing.
func TestPortForwardBurstZeroAlloc(t *testing.T) {
	rig := newForwardRig(nil, 5*eventsim.Microsecond)
	for i := 0; i < 4; i++ {
		rig.sendBurst()
	}
	allocs := testing.AllocsPerRun(100, rig.sendBurst)
	if allocs != 0 {
		t.Fatalf("burst forward path allocates %.1f per burst in steady state, want 0", allocs)
	}
	// 4 warm-up bursts, AllocsPerRun's own warm-up run, and 100 measured.
	if got := rig.sink.received; got != 105*burstLen {
		t.Fatalf("sink received %d packets, want %d", got, 105*burstLen)
	}
}

// TestPacketPoolRecycles checks the pool contract: Put zeroes, Get reuses
// LIFO, nil pools degrade to plain allocation.
func TestPacketPoolRecycles(t *testing.T) {
	pool := NewPacketPool()
	a := pool.NewDataPacket(7, 1, 2, 100, DefaultMTU, true)
	pool.Put(a)
	if a.FlowID != 0 || a.WireBytes != 0 || a.Last {
		t.Fatal("Put did not zero the packet")
	}
	b := pool.Get()
	if b != a {
		t.Fatal("Get did not reuse the recycled packet")
	}
	if pool.Recycled != 1 || pool.Fresh != 1 {
		t.Fatalf("Recycled=%d Fresh=%d, want 1/1", pool.Recycled, pool.Fresh)
	}
	var nilPool *PacketPool
	if nilPool.Get() == nil {
		t.Fatal("nil pool Get returned nil")
	}
	nilPool.Put(&Packet{}) // must not panic
}

// BenchmarkPortForward measures the full per-packet data-path cost — queue,
// serialize, propagate, sink, recycle — which is two engine events plus the
// pool round-trip per packet.
func BenchmarkPortForward(b *testing.B) {
	rig := newForwardRig(nil, eventsim.Microsecond)
	for i := int64(0); i < 256; i++ {
		rig.sendOne(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendOne(int64(i))
	}
	b.StopTimer()
	b.ReportMetric(float64(rig.sink.bytes)/b.Elapsed().Seconds()/1e9, "simGB/s")
}

// BenchmarkPortForwardBurst is the wire-depth regime: bursts of 64 MTU
// frames on a 100 Gbps, 5 µs link, so ~60 packets share the link's
// delivery lane and none sits on the event heap. Reported per packet.
func BenchmarkPortForwardBurst(b *testing.B) {
	rig := newForwardRig(nil, 5*eventsim.Microsecond)
	for i := 0; i < 4; i++ {
		rig.sendBurst()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burstLen {
		rig.sendBurst()
	}
	b.StopTimer()
	b.ReportMetric(float64(rig.sink.bytes)/b.Elapsed().Seconds()/1e9, "simGB/s")
}

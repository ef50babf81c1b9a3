package netdev

import "repro/internal/eventsim"

// wireEntry is one packet crossing the wire: its arrival instant and the
// (key, seq) pair that ranks it among same-instant events, seq reserved
// from the engine when the packet was put on the wire.
type wireEntry struct {
	pkt *Packet
	at  eventsim.Time
	key uint64
	seq uint64
}

// before reports whether a ranks ahead of b in the engine's (at, key,
// seq) event order.
func (a *wireEntry) before(b *wireEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Wire is one link direction's packets in flight: serialized, not yet
// arrived. It keeps them in a FIFO sorted by the engine's (at, key, seq)
// order and files exactly one engine event, for the head. The engine's
// heap therefore holds one event per busy link instead of one per packet
// on the wire, while each packet's sequence number is reserved when it is
// put on the wire, so every arrival pops in exactly the position a
// per-packet event would have (see eventsim's reserved-sequence rule).
//
// Arrivals on a link are nearly always monotone, so Put is almost always
// an append. Two cases insert out of order: a PFC frame overtaken by a
// data packet that finishes serializing just after it (the frame pays
// its own serialization, the data packet has already paid its own), and
// a degradation healed while packets that captured the longer delay are
// still on the wire.
type Wire struct {
	eng  *eventsim.Engine
	dev  Device
	port int

	q    []wireEntry
	head int
	// ev is the engine event armed for q[head]; fire is its persistent
	// handler, built once so arming allocates nothing.
	ev   eventsim.EventID
	fire eventsim.Handler
}

// NewWire returns a wire that delivers to dev.Receive(pkt, port) on eng.
func NewWire(eng *eventsim.Engine, dev Device, port int) *Wire {
	w := &Wire{}
	w.init(eng)
	w.dev, w.port = dev, port
	return w
}

func (w *Wire) init(eng *eventsim.Engine) {
	w.eng = eng
	w.fire = w.deliver
}

// Len reports the number of packets on the wire.
func (w *Wire) Len() int { return len(w.q) - w.head }

// Put puts pkt on the wire to arrive at the far end at instant at,
// ranked among same-instant events by key. It reserves the engine's next
// sequence number, so the arrival fires where ScheduleKeyed(at, key, …)
// called now would have fired it.
func (w *Wire) Put(pkt *Packet, at eventsim.Time, key uint64) {
	e := wireEntry{pkt: pkt, at: at, key: key, seq: w.eng.ReserveSeq()}
	w.q = append(w.q, wireEntry{})
	i := len(w.q) - 1
	for i > w.head && e.before(&w.q[i-1]) {
		w.q[i] = w.q[i-1]
		i--
	}
	w.q[i] = e
	if i == w.head {
		if i+1 < len(w.q) {
			// The previous head's event now fires too late.
			w.eng.Cancel(w.ev)
		}
		w.arm(&e)
	}
}

// arm files the head entry h's event under its reserved sequence number.
func (w *Wire) arm(h *wireEntry) {
	w.ev = w.eng.ScheduleReserved(h.at, h.key, h.seq, w.fire)
}

// deliver is the head event's handler: pop the head, arm the next entry,
// then hand the packet to the far end. Arming first keeps the invariant
// Put relies on — a non-empty wire always has its head armed — true
// while the receiver runs.
func (w *Wire) deliver() {
	pkt := w.q[w.head].pkt
	w.q[w.head] = wireEntry{}
	w.head++
	if w.head == len(w.q) {
		w.q = w.q[:0]
		w.head = 0
	} else {
		if w.head > 64 && w.head*2 > len(w.q) {
			n := copy(w.q, w.q[w.head:])
			clear(w.q[n:])
			w.q = w.q[:n]
			w.head = 0
		}
		w.arm(&w.q[w.head])
	}
	w.dev.Receive(pkt, w.port)
}

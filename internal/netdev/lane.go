package netdev

import "repro/internal/eventsim"

// arrival is one packet in flight, delivered to the far end of the port
// it left.
type arrival struct {
	pkt  *Packet
	from *EgressPort
}

// deliver hands a landed packet to the device at the far end of its link.
func deliver(a arrival) { a.from.peer.Receive(a.pkt, a.from.peerPort) }

// Lane is a delivery lane: packets in flight on one engine, sorted in the
// engine's (at, key, seq) event order and delivered without touching its
// heap (see eventsim's lane rule). Each packet's sequence number is taken
// when it is put on the lane, so every arrival fires exactly where a
// per-packet event scheduled at departure would have.
type Lane struct {
	q *eventsim.Lane[arrival]
	// delay is the delivery delay of every packet a port puts on the
	// lane; 0 for a lane fed with explicit arrival times (NewLane).
	delay eventsim.Time
}

// NewLane returns an empty delivery lane on eng, fed through Put.
func NewLane(eng *eventsim.Engine) *Lane {
	return &Lane{q: eventsim.NewLane(eng, deliver)}
}

// Put puts pkt, which left port from, on the lane to arrive at the far
// end of from's link at instant at, ranked among same-instant events by
// key.
func (l *Lane) Put(from *EgressPort, pkt *Packet, at eventsim.Time, key uint64) {
	l.q.Push(at, key, arrival{pkt: pkt, from: from})
}

// Len reports the number of packets on the lane.
func (l *Lane) Len() int { return l.q.Len() }

// Lanes is one engine's set of delivery lanes, one per delivery delay.
// Every port that puts packets on a lane captures the same delay, and a
// port departs packets in time order, so each lane receives arrivals in
// time order: putting a packet is an append except for same-instant key
// ties, which sort from the tail. In a uniform fabric every data delivery
// shares one lane; PFC frames (control-frame serialization plus
// propagation) and degraded links (propagation plus extra delay) get
// lanes of their own. Devices install one set on all their ports
// (SetLanes), and every device on an engine shares that engine's set.
type Lanes struct {
	eng   *eventsim.Engine
	lanes []*Lane
}

// NewLanes returns an empty lane set on eng.
func NewLanes(eng *eventsim.Engine) *Lanes { return &Lanes{eng: eng} }

// lane returns the set's lane for delivery delay d, creating it on first
// use.
func (ls *Lanes) lane(d eventsim.Time) *Lane {
	for _, l := range ls.lanes {
		if l.delay == d {
			return l
		}
	}
	l := NewLane(ls.eng)
	l.delay = d
	ls.lanes = append(ls.lanes, l)
	return l
}

// Len reports the number of packets on every lane of the set.
func (ls *Lanes) Len() int {
	n := 0
	for _, l := range ls.lanes {
		n += l.Len()
	}
	return n
}

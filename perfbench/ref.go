package main

import (
	"bufio"
	"io"
	"net"
	"time"
)

// Reference kernels. A shared host's speed drifts: over a few minutes
// every workload here ran up to 40% slower and then recovered, far more
// than the run-to-run noise of the workloads themselves. So each run also
// times a fixed kernel of the benchmark's own, before every unit of work,
// and the end-to-end host costs are reported in units of its median: a
// change to the program moves the ratio, a slower host moves both terms.
// The kernels never change between benchmark revisions.

// refCompute times the simulator's kind of work: a 4-ary min-heap of
// pseudo-random timestamps, as an event queue, kept at 64k entries. It
// holds no large working set, so it does not inflate peak_rss_mb.
func refCompute() time.Duration {
	heap := make([]uint64, 0, 1<<16)
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap = append(heap, x)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 4
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
		if len(heap) == cap(heap) {
			heap = refPop(heap)
		}
	}
	return time.Since(start)
}

// refPop removes the heap's minimum.
func refPop(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for p := 0; ; {
		m := p
		for c := 4*p + 1; c <= 4*p+4 && c < n; c++ {
			if h[c] < h[m] {
				m = c
			}
		}
		if m == p {
			return h
		}
		h[p], h[m] = h[m], h[p]
		p = m
	}
}

// refFrames is the loopback kernel's round-trip count and refFrame its
// request size, about one ctrlrpc report.
const (
	refFrames = 2000
	refFrame  = 256
)

// refLoopback times refFrames request/response round trips over a fresh
// loopback TCP connection to an echo goroutine: the kernel and scheduler
// work every controller RPC pays, without the controller.
func refLoopback() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, refFrame)
		r, w := bufio.NewReader(c), bufio.NewWriter(c)
		for i := 0; i < refFrames; i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				done <- err
				return
			}
			w.Write(buf[:8])
			if err := w.Flush(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	elapsed, err := refPingPong(c)
	c.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	return elapsed, err
}

func refPingPong(c net.Conn) (time.Duration, error) {
	req, resp := make([]byte, refFrame), make([]byte, 8)
	r := bufio.NewReader(c)
	start := time.Now()
	for i := 0; i < refFrames; i++ {
		if _, err := c.Write(req); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(r, resp); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

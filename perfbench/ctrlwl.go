package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ctrl-tcp shape. One interval: every rack uploads its report, the
// driver ticks, and on a dispatch every rack acknowledges the new epoch.
// The racks are sized so a median interval takes about half of λ_MI on
// a 2-core host.
const (
	ctrlRacks     = 24
	ctrlLambda    = time.Millisecond // λ_MI, Table III
	ctrlIntervals = 2000             // intervals per repetition
	// ctrlPhase is how many intervals each traffic mix lasts before the
	// stream switches between mice- and elephant-dominant flow sizes.
	ctrlPhase = 250
	// ctrlFlows is the number of flows each rack report summarizes, and
	// ctrlTemplates the number of distinct reports drawn per mix.
	ctrlFlows     = 48
	ctrlTemplates = 128
	// elephantBytes classifies a flow as an elephant in the generated
	// reports.
	elephantBytes = 1 << 20
)

// ctrlStream is the seeded report stream of one repetition: per mix a
// set of report templates, and for every (interval, rack) the template
// it sends.
type ctrlStream struct {
	templates [2][ctrlTemplates]ctrlrpc.Report
	pick      []uint8 // [interval*ctrlRacks + rack]
}

func newCtrlStream(seed int64) *ctrlStream {
	rng := rand.New(rand.NewSource(seed))
	s := &ctrlStream{pick: make([]uint8, ctrlIntervals*ctrlRacks)}
	mixes := [2]workload.SizeCDF{workload.SolarRPC(), workload.WebSearch()}
	// Runtime signals per mix: mice keep links lightly used with short
	// queues; elephants fill links and build queues.
	util := [2]float64{0.35, 0.8}
	rtt := [2]float64{0.85, 0.6}
	for mix, cdf := range mixes {
		for j := range s.templates[mix] {
			r := &s.templates[mix][j]
			for f := 0; f < ctrlFlows; f++ {
				size := cdf.Sample(rng)
				r.Hist[monitor.BucketFor(size)] += float64(size)
				if size >= elephantBytes {
					r.ElephantBytes += float64(size)
					r.ElephantFlowsW++
				} else {
					r.MiceBytes += float64(size)
					r.MiceFlowsW++
				}
				r.Flows++
			}
			r.ActiveLinks = 8
			r.UtilSum = 8 * (util[mix] + 0.1*(rng.Float64()-0.5))
			r.RTTCount = 16
			r.RTTNormSum = 16 * (rtt[mix] + 0.1*(rng.Float64()-0.5))
			r.Devices = 5
			r.PauseFracSum = 5 * 0.02 * rng.Float64()
		}
	}
	for i := range s.pick {
		s.pick[i] = uint8(rng.Intn(ctrlTemplates))
	}
	return s
}

func (s *ctrlStream) report(k, rack int) ctrlrpc.Report {
	r := s.templates[(k/ctrlPhase)%2][s.pick[k*ctrlRacks+rack]]
	r.AgentID = uint32(rack)
	r.Seq = uint64(k)
	return r
}

// sleepUntil blocks the calling thread until due. It sleeps in the
// kernel rather than on a runtime timer, whose wake-ups can come a
// millisecond late: a full λ_MI.
func sleepUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// ctrlRep is what one repetition measured.
type ctrlRep struct {
	traced              bool
	setup, busy, cpu    time.Duration
	schedule            time.Duration
	latency, lag        []time.Duration
	rpcs, rpcErrs       int64
	unacked             int
	stats               ctrlrpc.ServerStats
	clientIn, clientOut int64
	steps, sessions     int64
	accepts, rejects    int64
	digest              string
}

// ctrlConns is the number of TCP connections a repetition opens: one
// that multiplexes every rack agent and one for the tick driver, or a
// single shared one on a 1-CPU host.
func ctrlConns() int { return min(2, runtime.NumCPU()) }

func runCtrlTCP(o options) (*outcome, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var reps []*ctrlRep
	var tracedWall time.Duration
	var refs []float64
	err := repeat(o.budget, 3, func(i int) error {
		runtime.GC()
		ref, err := refLoopback()
		if err != nil {
			return fmt.Errorf("reference kernel: %w", err)
		}
		refs = append(refs, ref.Seconds())
		traced := o.traced && i%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		start := time.Now()
		r, err := ctrlRepeat(o.seed, t)
		if err != nil {
			return err
		}
		if traced {
			tracedWall += time.Since(start)
		}
		reps = append(reps, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: map[string]float64{}}
	first := reps[0]
	fmt.Printf("ctrl-tcp seed %d: %d repetitions × %d intervals × %d racks over %d connections, digest %s\n",
		o.seed, len(reps), ctrlIntervals, ctrlRacks, ctrlConns(), first.digest)
	var untraced []*ctrlRep
	var latency, lag []float64
	for i, r := range reps {
		out.attempted += r.rpcs
		out.failed += r.rpcErrs
		st := r.stats
		out.check(r.rpcErrs == 0, "rep %d: %d of %d RPCs failed", i, r.rpcErrs, r.rpcs)
		out.check(st.Reports == ctrlRacks*ctrlIntervals, "rep %d: server took %d reports, want %d", i, st.Reports, ctrlRacks*ctrlIntervals)
		out.check(st.Ticks == ctrlIntervals, "rep %d: server took %d ticks, want %d", i, st.Ticks, ctrlIntervals)
		out.check(r.clientOut == st.BytesIn && r.clientIn == st.BytesOut,
			"rep %d: client bytes out/in %d/%d != server bytes in/out %d/%d", i, r.clientOut, r.clientIn, st.BytesIn, st.BytesOut)
		out.check(st.Triggers >= 1 && st.Dispatches >= 1, "rep %d: %d triggers, %d dispatches, want ≥1 each", i, st.Triggers, st.Dispatches)
		out.check(r.unacked == 0, "rep %d: %d dispatches not acknowledged by all %d racks", i, r.unacked, ctrlRacks)
		out.check(r.digest == first.digest, "rep %d (traced %v) digest %s != rep 0 %s", i, r.traced, r.digest, first.digest)
		if r.traced {
			continue
		}
		untraced = append(untraced, r)
		latency = append(latency, micros(r.latency)...)
		lag = append(lag, micros(r.lag)...)
	}
	medianOf := func(rs []*ctrlRep, f func(*ctrlRep) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	minOf := func(rs []*ctrlRep, f func(*ctrlRep) float64) float64 {
		v := math.Inf(1)
		for _, r := range rs {
			v = math.Min(v, f(r))
		}
		return v
	}
	m := out.metrics
	// Loopback RPC cost on a shared host swings by up to 2× for seconds
	// at a time, whole repetitions long; the fastest repetition measures
	// the controller rather than its neighbours.
	wall := minOf(untraced, func(r *ctrlRep) float64 { return r.busy.Seconds() })
	fmt.Printf("ctrl-tcp seed %d: wall_s %.6f ref_s %.6f (fastest of %d)\n",
		o.seed, wall, slices.Min(refs), len(refs))
	if !o.traced {
		m["wall_rel"] = ratio(wall, slices.Min(refs))
		m["setup_s"] = medianOf(untraced, func(r *ctrlRep) float64 { return r.setup.Seconds() })
		return out, nil
	}

	m["wall_s"] = wall
	m["ref_s"] = slices.Min(refs)
	m["cpu_s"] = minOf(untraced, func(r *ctrlRep) float64 { return r.cpu.Seconds() })
	st := first.stats
	late := 0
	for _, v := range latency {
		if v > float64(ctrlLambda)/1e3 {
			late++
		}
	}
	m["ctrl_interval_p50_us"] = percentile(latency, 50)
	m["ctrl_interval_p99_us"] = percentile(latency, 99)
	m["ctrl_late_frac"] = ratio(float64(late), float64(len(latency)))
	m["ctrl_bytes_per_interval"] = ratio(float64(st.BytesIn+st.BytesOut), float64(st.Ticks))
	m["ctrlrpc.gen_lag_p99_us"] = percentile(lag, 99)
	m["ctrlrpc.frames_per_interval"] = ratio(float64(2*(st.Reports+st.Ticks+st.ApplyAcks)), float64(st.Ticks))
	m["ctrlrpc.server_tick_us"] = medianOf(untraced, func(r *ctrlRep) float64 {
		return ratio(float64(r.stats.Processing)/1e3, float64(r.stats.Ticks))
	})
	m["ctrlrpc.server_busy_frac"] = medianOf(untraced, func(r *ctrlRep) float64 {
		return ratio(float64(r.stats.Processing), float64(r.schedule))
	})
	m["ctrlrpc.triggers"] = float64(st.Triggers)
	m["ctrlrpc.dispatches"] = float64(st.Dispatches)
	m["ctrlrpc.apply_acks"] = float64(st.ApplyAcks)
	m["tuner.steps"] = float64(first.steps)
	m["tuner.sessions"] = float64(first.sessions)
	m["tuner.accept_ratio"] = ratio(float64(first.accepts), float64(first.accepts+first.rejects))
	m["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	m["ctrlrpc.report_rtt_us_p50"] = tr.pct("ctrlrpc.report", 50)
	m["ctrlrpc.report_rtt_us_p99"] = tr.pct("ctrlrpc.report", 99)
	m["ctrlrpc.tick_rtt_us_p50"] = tr.pct("ctrlrpc.tick", 50)
	m["ctrlrpc.tick_rtt_us_p99"] = tr.pct("ctrlrpc.tick", 99)
	m["ctrlrpc.ack_rtt_us_p50"] = tr.pct("ctrlrpc.apply_ack", 50)
	var tracedBusy []float64
	for _, r := range reps {
		if r.traced {
			tracedBusy = append(tracedBusy, r.busy.Seconds())
		}
	}
	untracedBusy := medianOf(untraced, func(r *ctrlRep) float64 { return r.busy.Seconds() })
	m["trace.overhead_frac"] = ratio(median(tracedBusy), untracedBusy) - 1
	for _, layer := range []string{"setup", "ctrl", "ctrlrpc"} {
		m["self_frac."+layer] = tr.selfFrac(layer, tracedWall)
	}
	path, err := tr.write(o.outDir, "ctrl-tcp", o.seed, map[string]int64{
		"repetitions": int64(len(reps)), "traced_repetitions": int64(len(tracedBusy)),
		"racks": ctrlRacks, "intervals_per_repetition": ctrlIntervals, "connections": int64(ctrlConns()),
	})
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("ctrl-tcp seed %d: spans written to %s\n", o.seed, path)
	return out, nil
}

// ctrlRepeat runs one repetition: start a controller, connect, and drive
// ctrlIntervals intervals open loop, one every λ_MI, timing each from
// its due time to the moment its parameters arrive.
func ctrlRepeat(seed int64, t *tracer) (*ctrlRep, error) {
	r := &ctrlRep{traced: t != nil}
	setupStart := time.Now()
	t.begin("setup")
	stream := newCtrlStream(seed)
	cfg := ctrlrpc.DefaultServerConfig()
	cfg.SA = core.ShortSAConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	srv, err := ctrlrpc.Serve("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	agents, err := ctrlrpc.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	driver := agents
	if ctrlConns() > 1 {
		if driver, err = ctrlrpc.Dial(srv.Addr()); err != nil {
			agents.Close()
			srv.Close()
			return nil, err
		}
	}
	t.end()
	r.setup = time.Since(setupStart)

	d := &ctrlDriver{srv: srv, agents: agents, driver: driver, stream: stream, t: t, r: r}
	answers := make([]ctrlrpc.TickResult, 0, ctrlIntervals)
	cpu0 := cpuTime()
	origin := time.Now().Add(ctrlLambda)
	var last time.Time
	for k := 0; k < ctrlIntervals; k++ {
		due := origin.Add(time.Duration(k) * ctrlLambda)
		sleepUntil(due)
		started := time.Now()
		r.lag = append(r.lag, started.Sub(due))
		t.begin("ctrl.interval")
		res, err := d.interval(k, due)
		t.end()
		last = time.Now()
		r.busy += last.Sub(started)
		if err != nil {
			break
		}
		answers = append(answers, res)
	}
	r.cpu = cpuTime() - cpu0
	r.schedule = last.Sub(origin)

	h := sha256.New()
	for k, res := range answers {
		fmt.Fprintf(h, "%d %v %v %d %+v;", k, res.Changed, res.Triggered, res.Epoch, res.Params)
	}
	r.digest = hex.EncodeToString(h.Sum(nil)[:16])

	// Close the connections and the server before reading its counters,
	// so every handler has finished accounting for its last frame.
	r.clientIn, r.clientOut = agents.BytesIn, agents.BytesOut
	if driver != agents {
		r.clientIn += driver.BytesIn
		r.clientOut += driver.BytesOut
		driver.Close()
	}
	agents.Close()
	srv.Close()
	r.stats = srv.Stats()
	tm := telemetry.NewTunerMetrics(cfg.Telemetry)
	r.steps = tm.Iterations.Value()
	r.sessions = tm.Sessions.Value()
	r.accepts = tm.Accepts.Value()
	r.rejects = tm.Rejects.Value()
	return r, nil
}

// ctrlDriver issues one repetition's RPCs and counts them.
type ctrlDriver struct {
	srv            *ctrlrpc.Server
	agents, driver *ctrlrpc.Client
	stream         *ctrlStream
	t              *tracer
	r              *ctrlRep
}

// call runs one RPC inside a span named name and counts it.
func (d *ctrlDriver) call(name string, rpc func() error) error {
	d.t.begin(name)
	err := rpc()
	d.t.end()
	d.r.rpcs++
	if err != nil {
		d.r.rpcErrs++
	}
	return err
}

// interval runs interval k: every rack's report, the tick, and on a
// dispatch every rack's apply-ack. It stops at the first failed RPC.
func (d *ctrlDriver) interval(k int, due time.Time) (ctrlrpc.TickResult, error) {
	var res ctrlrpc.TickResult
	for rack := 0; rack < ctrlRacks; rack++ {
		rep := d.stream.report(k, rack)
		if err := d.call("ctrlrpc.report", func() error { return d.agents.SendReport(rep) }); err != nil {
			return res, err
		}
	}
	err := d.call("ctrlrpc.tick", func() (err error) {
		res, err = d.driver.Tick(uint64(k), ctrlLambda)
		return err
	})
	if err != nil {
		return res, err
	}
	d.r.latency = append(d.r.latency, time.Since(due))
	if !res.Changed {
		return res, nil
	}
	ack := ctrlrpc.AckMsg{Epoch: res.Epoch, VectorHash: dispatch.VectorHash(&res.Params), Applied: true}
	for rack := 0; rack < ctrlRacks; rack++ {
		ack.AgentID = uint32(rack)
		if err := d.call("ctrlrpc.apply_ack", func() error { return d.agents.SendApplyAck(ack) }); err != nil {
			return res, err
		}
	}
	if d.srv.EpochAcks() != ctrlRacks {
		d.r.unacked++
	}
	return res, nil
}

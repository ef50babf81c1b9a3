package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/splitmix"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// simWorkload is a fixed virtual horizon on one single-engine network,
// simulated for a fixed number of seeded instances.
type simWorkload struct {
	name      string
	scale     harness.Scale
	horizon   eventsim.Time
	instances int
	// drainMax is the absolute virtual deadline by which every started
	// flow must have completed; a flow still running then is a failed
	// operation.
	drainMax eventsim.Time
	// drainAll drains every instance; otherwise only instance 0 drains,
	// for a workload whose drain costs more host time than its horizon.
	// Later passes stop at the horizon.
	drainAll bool
	// loop attaches the in-process Paraleon loop (sketch agents, KL
	// trigger, "sa" tuner); without it the fabric runs static default
	// parameters and a runtime collector samples it for utility.
	loop bool
	// install starts the workload's traffic and returns the function
	// that stops its open-ended generators at the horizon.
	install func(n *sim.Network) (stop func(), err error)
}

func runInfluxLoop(o options) (*outcome, error) {
	spec := harness.DefaultInfluxSpec()
	return runSim(o, simWorkload{
		name:      "influx-loop",
		scale:     harness.MediumScale(),
		horizon:   spec.Horizon,
		instances: 16,
		drainMax:  spec.Horizon + 200*eventsim.Millisecond,
		drainAll:  true,
		loop:      true,
		install: func(n *sim.Network) (func(), error) {
			hosts := n.Topo.Hosts()
			inf, err := workload.InstallInflux(n, workload.InfluxConfig{
				Background: workload.AlltoallConfig{
					Workers:      hosts[:spec.Workers],
					MessageBytes: spec.Message,
					OffTime:      5 * eventsim.Millisecond,
				},
				Burst: workload.PoissonConfig{
					Hosts:    hosts,
					CDF:      workload.FBHadoop(),
					Load:     spec.BurstLoad,
					Start:    spec.BurstAt,
					Duration: spec.BurstLen,
				},
			})
			if err != nil {
				return nil, err
			}
			return inf.Background.Stop, nil
		},
	})
}

// fabricHorizon is fabric-fb's arrival window and timed horizon.
const fabricHorizon = 2 * eventsim.Millisecond

func runFabricFB(o options) (*outcome, error) {
	return runSim(o, simWorkload{
		name:      "fabric-fb",
		scale:     harness.PaperScale(),
		horizon:   fabricHorizon,
		instances: 6,
		drainMax:  100 * eventsim.Millisecond,
		install: func(n *sim.Network) (func(), error) {
			_, err := workload.InstallPoisson(n, workload.PoissonConfig{
				CDF:      workload.FBHadoop(),
				Load:     0.5,
				Duration: fabricHorizon,
			})
			return func() {}, err
		},
	})
}

// simRep is what one run of one instance measured.
type simRep struct {
	drained bool

	setup, install, wall, cpu, drain time.Duration
	mallocs                          uint64
	// horizonDigest covers the run up to the horizon; digest covers it
	// through the drain when the instance drained, else equals it.
	horizonDigest, digest string

	// Counts at the horizon (exact for the instance's seed).
	events                                   uint64
	poolFresh, rx, drops, pfc, ecn, tx, cnps int64
	probes                                   int64
	pendingMax, inflightMax                  int
	tapPackets, tapSampled, tapNs            int64
	utility                                  []float64

	// Outcomes after the drain.
	started                            int64
	completed                          int
	triggers, dispatches, guardRejects int
	steps, sessions, accepts, rejects  int
	slowdowns                          []float64
	belowIdeal, belowFloor             int
	firstBelowFloor                    string
	poolErr                            error
}

// runSim simulates a fixed set of instances, each from its own seed
// derived from the run's seed, in passes until the budget is spent;
// the first pass always completes. An instance's host cost is the
// fastest of its passes, which sheds the slowdowns a shared host
// imposes now and then, and the host-time metrics average over the
// instances, because one instance's cost depends strongly on its draw
// (under the loop, two seeds can differ by half). Only the first pass
// drains. In traced mode each first-pass instance runs again traced,
// and the two digests must match.
func runSim(o options, w simWorkload) (*outcome, error) {
	var tr *tracer
	var clock time.Duration
	if o.traced {
		tr = newTracer()
		clock = clockCost()
	}
	out := &outcome{metrics: map[string]float64{}}
	runs := make([][]*simRep, w.instances) // per instance, one per pass
	var traced []*simRep
	var tracedWall time.Duration
	var refs []float64
	err := repeat(o.budget, w.instances, func(i int) error {
		j, pass := i%w.instances, i/w.instances
		seed := splitmix.Derive(o.seed, j)
		drain := pass == 0 && (j == 0 || w.drainAll)
		runtime.GC()
		refs = append(refs, refCompute().Seconds())
		r, err := w.rep(seed, nil, 0, drain)
		if err != nil {
			return err
		}
		runs[j] = append(runs[j], r)
		if pass > 0 {
			out.check(r.horizonDigest == runs[j][0].horizonDigest,
				"instance %d pass %d: horizon digest %s != pass 0 %s", j, pass, r.horizonDigest, runs[j][0].horizonDigest)
			return nil
		}
		fmt.Printf("%s seed %d instance %d: digest %s\n", w.name, o.seed, j, r.digest)
		if !o.traced {
			return nil
		}
		runtime.GC()
		start := time.Now()
		rt, err := w.rep(seed, tr, clock, drain)
		if err != nil {
			return err
		}
		tracedWall += time.Since(start)
		traced = append(traced, rt)
		fmt.Printf("%s seed %d instance %d: traced digest %s\n", w.name, o.seed, j, rt.digest)
		out.check(rt.digest == r.digest, "instance %d: traced digest %s != untraced %s", j, rt.digest, r.digest)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var untraced, fastest []*simRep
	var setups []float64
	for j, rs := range runs {
		best := rs[0]
		for _, r := range rs {
			out.check(r.poolErr == nil, "instance %d: %v", j, r.poolErr)
			untraced = append(untraced, r)
			setups = append(setups, r.setup.Seconds())
			if r.wall < best.wall {
				best = r
			}
		}
		fastest = append(fastest, best)
		r := rs[0]
		if !r.drained {
			continue
		}
		out.check(r.belowFloor == 0, "instance %d: %d flows finished faster than the ideal FCT, e.g. %s",
			j, r.belowFloor, r.firstBelowFloor)
		if w.loop {
			out.check(r.triggers >= 1 && r.dispatches >= 1,
				"instance %d: %d KL triggers and %d dispatches, want ≥1 each", j, r.triggers, r.dispatches)
		}
		out.attempted += r.started
		out.failed += r.started - int64(r.completed)
	}

	sum := func(rs []*simRep, f func(*simRep) float64) float64 {
		var v float64
		for _, r := range rs {
			v += f(r)
		}
		return v
	}
	mean := func(rs []*simRep, f func(*simRep) float64) float64 { return sum(rs, f) / float64(len(rs)) }
	m := out.metrics
	wall := mean(fastest, func(r *simRep) float64 { return r.wall.Seconds() })
	fmt.Printf("%s seed %d: wall_s %.6f ref_s %.6f (fastest of %d)\n",
		w.name, o.seed, wall, slices.Min(refs), len(refs))
	if !o.traced {
		m["wall_rel"] = ratio(wall, slices.Min(refs))
		m["setup_s"] = median(setups)
		return out, nil
	}
	m["wall_s"] = wall
	m["ref_s"] = slices.Min(refs)

	// Sim counts and outcomes come from instance 0; host times sum over
	// every untraced run.
	first := runs[0][0]
	untracedWall := sum(untraced, func(r *simRep) float64 { return r.wall.Seconds() })
	allEvents := sum(untraced, func(r *simRep) float64 { return float64(r.events) })
	m["cpu_s"] = mean(fastest, func(r *simRep) float64 { return r.cpu.Seconds() })
	m["eventsim.events"] = float64(first.events)
	m["eventsim.ns_per_event"] = ratio(untracedWall*1e9, allEvents)
	m["sim.allocs_per_event"] = ratio(sum(untraced, func(r *simRep) float64 { return float64(r.mallocs) }), allEvents)
	m["sim.drain_s"] = first.drain.Seconds()
	m["netdev.pool_fresh"] = float64(first.poolFresh)
	m["netdev.rx_packets"] = float64(first.rx)
	m["netdev.drops"] = float64(first.drops)
	m["netdev.pfc_triggers"] = float64(first.pfc)
	m["netdev.ecn_marked"] = float64(first.ecn)
	m["rnic.tx_packets"] = float64(first.tx)
	m["rnic.cnps_received"] = float64(first.cnps)
	m["rnic.probes_sent"] = float64(first.probes)
	m["eventsim.pending_max"] = float64(traced[0].pendingMax)
	m["netdev.inflight_max"] = float64(traced[0].inflightMax)
	m["core.triggers"] = float64(first.triggers)
	m["core.dispatches"] = float64(first.dispatches)
	m["core.guard_rejects"] = float64(first.guardRejects)
	m["tuner.steps"] = float64(first.steps)
	m["tuner.sessions"] = float64(first.sessions)
	m["tuner.accept_ratio"] = ratio(float64(first.accepts), float64(first.accepts+first.rejects))
	m["workload.flows_started"] = float64(first.started)
	m["workload.install_ms"] = mean(untraced, func(r *simRep) float64 { return float64(r.install) / 1e6 })
	m["fct_flows"] = float64(first.completed)
	m["fct_below_ideal"] = float64(first.belowIdeal)
	m["fct_slowdown_p50"] = percentile(first.slowdowns, 50)
	m["fct_slowdown_p99"] = percentile(first.slowdowns, 99)
	m["utility_mean"] = metrics.Mean(first.utility)
	m["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))

	// traced[j] reran runs[j][0]'s inputs.
	var pairedWall float64
	for j := range traced {
		pairedWall += runs[j][0].wall.Seconds()
	}
	m["trace.overhead_frac"] = ratio(sum(traced, func(r *simRep) float64 { return r.wall.Seconds() }), pairedWall) - 1
	tapPackets := sum(traced, func(r *simRep) float64 { return float64(r.tapPackets) })
	perTap := ratio(sum(traced, func(r *simRep) float64 { return float64(r.tapNs) }),
		sum(traced, func(r *simRep) float64 { return float64(r.tapSampled) }))
	m["monitor.agent_packets"] = float64(traced[0].tapPackets)
	m["monitor.agent_onpacket_ns"] = perTap
	tr.move("sim", "monitor", int64(perTap*tapPackets))
	m["sim.run_slice_us_p50"] = tr.pct("sim.run", 50)
	m["sim.run_slice_us_p99"] = tr.pct("sim.run", 99)
	m["core.tick_us_p50"] = tr.pct("core.tick", 50)
	m["core.tick_us_p99"] = tr.pct("core.tick", 99)
	m["monitor.agent_endinterval_us_p50"] = tr.pct("monitor.end_interval", 50)
	m["monitor.agent_endinterval_us_p99"] = tr.pct("monitor.end_interval", 99)
	m["monitor.sample_us_p50"] = tr.pct("monitor.sample", 50)
	for _, layer := range []string{"setup", "sim", "monitor", "core", "workload"} {
		m["self_frac."+layer] = tr.selfFrac(layer, tracedWall)
	}
	path, err := tr.write(o.outDir, w.name, o.seed, map[string]int64{
		"instances": int64(len(traced)), "agent_tap_packets": int64(tapPackets),
	})
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("%s seed %d: spans written to %s\n", w.name, o.seed, path)
	return out, nil
}

// tapCounter counts the packets an agent's switch tap sees and times
// one in tapSampleEvery of them: timing every tap would add more than
// it measures.
type tapCounter struct {
	packets, sampled, ns int64
	clock                int64
}

const tapSampleEvery = 64

func (c *tapCounter) wrap(fn func(*netdev.Packet, eventsim.Time)) func(*netdev.Packet, eventsim.Time) {
	return func(p *netdev.Packet, now eventsim.Time) {
		c.packets++
		if c.packets%tapSampleEvery != 0 {
			fn(p, now)
			return
		}
		t0 := time.Now()
		fn(p, now)
		c.ns += int64(time.Since(t0)) - c.clock
		c.sampled++
	}
}

// timedSource spans each EndInterval call of a report source.
type timedSource struct {
	src monitor.ReportSource
	t   *tracer
}

func (s timedSource) EndInterval() monitor.Report {
	s.t.begin("monitor.end_interval")
	r := s.src.EndInterval()
	s.t.end()
	return r
}

// rep builds the network, runs the horizon (timed), and with drain runs
// on until every started flow completes or drainMax passes. t is nil on
// untraced repetitions.
func (w simWorkload) rep(seed int64, t *tracer, clock time.Duration, drain bool) (*simRep, error) {
	r := &simRep{drained: drain}

	// Setup: network, loop, workload.
	setupStart := time.Now()
	t.begin("setup")
	netCfg := w.scale.Net
	netCfg.Params = dcqcn.DefaultParams()
	netCfg.Seed = seed
	t.begin("sim.new")
	n, err := sim.New(netCfg)
	t.end()
	if err != nil {
		return nil, err
	}
	n.AddFlowStartHook(func(uint64, topology.NodeID, topology.NodeID, int64) { r.started++ })
	interval := w.scale.Interval
	weights := core.DefaultWeights()
	taps := &tapCounter{clock: int64(clock)}
	var sys *core.System
	var col *monitor.RuntimeCollector
	if w.loop {
		t.begin("core.attach")
		sysCfg := harness.ParaleonScheme().SystemCfg
		sysCfg.Interval = interval
		sysCfg.Telemetry = telemetry.NewRegistry()
		for i, tor := range n.Topo.ToRs() {
			a := monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(i+1))
			if t == nil {
				a.Attach(n.Switch(tor))
				sysCfg.Sources = append(sysCfg.Sources, a)
			} else {
				monitor.TapAll(n.Switch(tor), taps.wrap(a.OnPacket))
				sysCfg.Sources = append(sysCfg.Sources, timedSource{src: a, t: t})
			}
		}
		sys, err = core.Attach(n, sysCfg)
		t.end()
		if err != nil {
			return nil, err
		}
		weights = sysCfg.Weights
		sys.StartProbingOnly()
	} else {
		col = monitor.NewRuntimeCollector(n)
		col.StartProbing(interval / 4)
	}
	installStart := time.Now()
	t.begin("workload.install")
	stop, err := w.install(n)
	t.end()
	r.install = time.Since(installStart)
	if err != nil {
		return nil, err
	}
	t.end()
	r.setup = time.Since(setupStart)

	slice := func(i int) {
		t.begin("sim.run")
		n.Run(eventsim.Time(i) * interval)
		t.end()
		if t != nil {
			r.pendingMax = max(r.pendingMax, n.Pending())
			r.inflightMax = max(r.inflightMax, n.PacketsInNetwork())
		}
		var sample monitor.RuntimeSample
		if sys != nil {
			t.begin("core.tick")
			sys.TickOnce()
			t.end()
			sample = sys.LastSample
		} else {
			t.begin("monitor.sample")
			sample = col.Sample(interval)
			t.end()
		}
		if n.Eng.Now() <= w.horizon {
			r.utility = append(r.utility, core.Utility(sample, weights))
		}
	}

	// The timed horizon.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ticks := int(w.horizon / interval)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 1; i <= ticks; i++ {
		slice(i)
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs

	r.events = n.EventsProcessed()
	r.countDevices(n)
	r.tapPackets, r.tapSampled, r.tapNs = taps.packets, taps.sampled, taps.ns
	r.poolErr = n.CheckPoolInvariant()
	r.horizonDigest = digest(n, r.utility)
	r.digest = r.horizonDigest
	if !drain {
		return r, nil
	}

	// Drain: stop open-ended generators, keep the loop closing
	// intervals, and flush in-flight deliveries at the end.
	stop()
	drainStart := time.Now()
	for i := ticks + 1; n.Eng.Now() < w.drainMax && int64(len(n.Completed)) < r.started; i++ {
		slice(i)
	}
	n.Run(n.Eng.Now() + 2*interval)
	r.drain = time.Since(drainStart)
	if err := n.CheckPoolInvariant(); err != nil && r.poolErr == nil {
		r.poolErr = err
	}
	r.completed = len(n.Completed)
	for _, s := range metrics.Slowdowns(n, n.Completed) {
		r.slowdowns = append(r.slowdowns, s.Value)
	}
	for _, rec := range n.Completed {
		if rec.FCT() < n.IdealFCT(rec.Src, rec.Dst, rec.Size) {
			r.belowIdeal++
		}
		if floor := minFCT(n, rec); rec.FCT() < floor {
			if r.belowFloor == 0 {
				r.firstBelowFloor = fmt.Sprintf("flow %d (%d B, %d→%d) FCT %v < %v",
					rec.ID, rec.Size, rec.Src, rec.Dst, rec.FCT(), floor)
			}
			r.belowFloor++
		}
	}
	if sys != nil {
		r.triggers = sys.Controller.Triggers
		r.dispatches = sys.Dispatches
		r.guardRejects = sys.GuardRejects
		st := sys.Tuner.Stats()
		r.steps, r.sessions, r.accepts, r.rejects = st.Steps, st.Sessions, st.Accepts, st.Rejects
	}
	r.digest = digest(n, r.utility)
	return r, nil
}

// minFCT is the uncontended completion time of a flow as the simulator
// times it: sim.Network.IdealFCT, except that each packet's serialization
// is truncated to whole nanoseconds the way the ports schedule it. At
// 100 Gbps that truncation makes a long uncontended flow up to 1% faster
// than IdealFCT, which is computed in one piece; no flow can beat this
// bound.
func minFCT(n *sim.Network, rec sim.FlowRecord) eventsim.Time {
	mtu := int64(n.Config().MTU)
	if mtu <= 0 {
		mtu = netdev.DefaultMTU
	}
	ser := func(payload int64) eventsim.Time {
		return eventsim.Time(float64((payload+netdev.HeaderBytes)*8) / n.HostLinkBps() * 1e9)
	}
	t := eventsim.Time(rec.Size/mtu) * ser(mtu)
	if rest := rec.Size % mtu; rest > 0 {
		t += ser(rest)
	}
	return t + n.Topo.BasePathDelay(rec.Src, rec.Dst)
}

// countDevices sums the data-plane counters of every device.
func (r *simRep) countDevices(n *sim.Network) {
	for _, p := range n.PacketPools() {
		r.poolFresh += p.Fresh
	}
	for _, sw := range n.Switches {
		r.rx += sw.Stats.RxPackets
		r.drops += sw.Stats.Drops
		r.pfc += sw.Stats.PFCTriggers
		for i := 0; i < sw.NumPorts(); i++ {
			r.ecn += sw.Port(i).Stats.ECNMarked
		}
	}
	for _, h := range n.Hosts {
		r.tx += h.Stats.TxPackets
		r.cnps += h.Stats.CNPsReceived
		r.probes += h.Stats.ProbesSent
	}
}

// digest hashes what the simulation produced: every completed flow
// record in completion order, the per-interval utility series, and the
// parameter vector each RNIC and switch ends up running. Event counts
// are left out on purpose: an engine change may remove events without
// changing any outcome.
func digest(n *sim.Network, utility []float64) string {
	h := sha256.New()
	for _, rec := range n.Completed {
		writeInts(h, int64(rec.ID), int64(rec.Src), int64(rec.Dst), rec.Size, int64(rec.Start), int64(rec.End))
	}
	for _, u := range utility {
		writeInts(h, int64(math.Float64bits(u)))
	}
	writeParams(h, n.RNICParams())
	for _, sw := range n.Switches {
		writeParams(h, n.SwitchParams(sw.NodeID()))
	}
	for _, hn := range n.Topo.Hosts() {
		if p := n.HostParams(hn); p != nil {
			writeParams(h, p)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func writeParams(h hash.Hash, p *dcqcn.Params) {
	fmt.Fprintf(h, "%+v;", *p)
}

func writeInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

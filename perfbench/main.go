// Command perfbench is the repository benchmark. It runs one named
// workload through the public APIs of the simulator and the TCP
// controller, checks the outputs, and prints the metrics as the last
// line of standard output:
//
//	perfbench --workload influx-loop --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// also reruns the same inputs with spans around every call into a layer,
// reports the per-layer metrics, and writes the spans under --out. See README.md for
// the workloads, the metrics and how to read the traced output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Metric tables: every run prints every metric of its mode, 0 where a
// workload does not exercise that layer.
var (
	endToEnd = map[string]string{
		"wall_rel":    "ref",
		"peak_rss_mb": "MB",
		"setup_s":     "s",
	}
	perLayer = map[string]string{
		"wall_s":                           "s",
		"ref_s":                            "s",
		"cpu_s":                            "s",
		"eventsim.events":                  "count",
		"eventsim.ns_per_event":            "ns",
		"eventsim.pending_max":             "count",
		"sim.run_slice_us_p50":             "us",
		"sim.run_slice_us_p99":             "us",
		"sim.allocs_per_event":             "count",
		"sim.drain_s":                      "s",
		"netdev.inflight_max":              "count",
		"netdev.pool_fresh":                "count",
		"netdev.rx_packets":                "count",
		"netdev.drops":                     "count",
		"netdev.pfc_triggers":              "count",
		"netdev.ecn_marked":                "count",
		"rnic.tx_packets":                  "count",
		"rnic.cnps_received":               "count",
		"rnic.probes_sent":                 "count",
		"monitor.agent_packets":            "count",
		"monitor.agent_onpacket_ns":        "ns",
		"monitor.agent_endinterval_us_p50": "us",
		"monitor.agent_endinterval_us_p99": "us",
		"monitor.sample_us_p50":            "us",
		"core.tick_us_p50":                 "us",
		"core.tick_us_p99":                 "us",
		"core.triggers":                    "count",
		"core.dispatches":                  "count",
		"core.guard_rejects":               "count",
		"tuner.steps":                      "count",
		"tuner.sessions":                   "count",
		"tuner.accept_ratio":               "ratio",
		"ctrlrpc.report_rtt_us_p50":        "us",
		"ctrlrpc.report_rtt_us_p99":        "us",
		"ctrlrpc.tick_rtt_us_p50":          "us",
		"ctrlrpc.tick_rtt_us_p99":          "us",
		"ctrlrpc.ack_rtt_us_p50":           "us",
		"ctrlrpc.server_tick_us":           "us",
		"ctrlrpc.server_busy_frac":         "ratio",
		"ctrlrpc.frames_per_interval":      "count",
		"ctrlrpc.triggers":                 "count",
		"ctrlrpc.dispatches":               "count",
		"ctrlrpc.apply_acks":               "count",
		"ctrlrpc.gen_lag_p99_us":           "us",
		"workload.flows_started":           "count",
		"workload.install_ms":              "ms",
		"fct_flows":                        "count",
		"fct_below_ideal":                  "count",
		"fct_slowdown_p50":                 "ratio",
		"fct_slowdown_p99":                 "ratio",
		"utility_mean":                     "score",
		"ctrl_interval_p50_us":             "us",
		"ctrl_interval_p99_us":             "us",
		"ctrl_late_frac":                   "ratio",
		"ctrl_bytes_per_interval":          "B",
		"failed_frac":                      "ratio",
		"self_frac.setup":                  "ratio",
		"self_frac.sim":                    "ratio",
		"self_frac.monitor":                "ratio",
		"self_frac.core":                   "ratio",
		"self_frac.workload":               "ratio",
		"self_frac.ctrl":                   "ratio",
		"self_frac.ctrlrpc":                "ratio",
		"trace.overhead_frac":              "ratio",
	}
)

// options is what every workload receives from the command line.
type options struct {
	seed   int64
	budget time.Duration
	traced bool
	outDir string
}

// outcome is a workload's result: operations attempted and failed, the
// output checks that did not hold, and the metrics of the run's mode.
type outcome struct {
	attempted, failed int64
	checkErrs         []string
	metrics           map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*outcome, error){
	"influx-loop": runInfluxLoop,
	"fabric-fb":   runFabricFB,
	"ctrl-tcp":    runCtrlTCP,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: influx-loop, fabric-fb or ctrl-tcp")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	secs := flag.Float64("seconds", 30, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	outDir := flag.String("out", ".bench_build/traces", "directory for traced-run span files")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	out, err := fn(options{
		seed:   *seed,
		budget: time.Duration(*secs * float64(time.Second)),
		traced: *trace == 1,
		outDir: *outDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	table := endToEnd
	if *trace == 1 {
		table = perLayer
	} else {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res := result{
		Correct:   len(out.checkErrs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for k, unit := range table {
		v := out.metrics[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", *name, k, v)
			return 1
		}
		res.Metrics[k] = metricValue{Value: v, Unit: unit}
	}
	for k := range out.metrics {
		if _, ok := table[k]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported unlisted metric %q\n", *name, k)
			return 1
		}
	}
	for _, e := range out.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", *name, e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// repeat calls rep with its index until budget has elapsed, at least
// min times.
func repeat(budget time.Duration, min int, rep func(i int) error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// maxKeptSpans bounds the spans a traced run keeps for its output file.
// Self time is accumulated for every span, kept or not, so the per-layer
// attribution covers the whole run; only the written file is truncated.
const maxKeptSpans = 200_000

// span is one timed call into a layer: name, start and end in
// nanoseconds since the tracer's origin, and the index of the span that
// encloses it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// open is a span still running: its slot in kept (or -1 when the cap
// was reached) and the time its children have covered so far.
type open struct {
	name  string
	start int64
	slot  int
	child int64
}

// tracer records spans in memory from the benchmark's own loop. Spans
// nest strictly (the loop is single-threaded), so a stack gives each
// span its parent and its self time: duration minus the part of it the
// child spans cover. Self time is summed per layer, the span name's
// prefix before the first '.'.
type tracer struct {
	origin  time.Time
	kept    []span
	dropped int64
	stack   []open
	self    map[string]int64
	durs    map[string][]float64 // span durations in µs, for percentiles
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), self: map[string]int64{}, durs: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span named name inside the innermost open span. A nil
// tracer records nothing, so untraced runs share the traced code path.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	start := t.now()
	slot := -1
	if len(t.kept) < maxKeptSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].slot
		}
		slot = len(t.kept)
		t.kept = append(t.kept, span{Name: name, Start: start, Parent: parent})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, open{name: name, start: start, slot: slot})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - o.start
	if o.slot >= 0 {
		t.kept[o.slot].End = end
	}
	t.self[layerOf(o.name)] += dur - o.child
	t.durs[o.name] = append(t.durs[o.name], float64(dur)/1e3)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
}

// move shifts an estimated amount of self time from one layer to
// another: the per-packet switch tap runs inside sim.run spans but is
// only counted and sampled, not spanned, so its estimated total is
// taken out of the enclosing layer here.
func (t *tracer) move(from, to string, ns int64) {
	t.self[from] -= ns
	t.self[to] += ns
}

// selfFrac reports a layer's self time as a share of total.
func (t *tracer) selfFrac(layer string, total time.Duration) float64 {
	return ratio(float64(t.self[layer]), float64(total))
}

// pct reports percentile p (0–100) of a span's durations in µs.
func (t *tracer) pct(name string, p float64) float64 { return percentile(t.durs[name], p) }

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceFile is the traced run's output: every kept span plus the
// per-layer self time the whole run accumulated.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	Dropped  int64            `json:"dropped_spans"`
	SelfNs   map[string]int64 `json:"self_ns"`
	Counts   map[string]int64 `json:"counts"`
}

// write saves the trace as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64, counts map[string]int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+itoa(seed)+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(traceFile{
		Workload: workload, Seed: seed, Spans: t.kept, Dropped: t.dropped,
		SelfNs: t.self, Counts: counts,
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}

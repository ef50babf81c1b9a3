package dispatch

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/telemetry"
)

// testRig is a pipeline over a recording apply callback.
type testRig struct {
	eng    *eventsim.Engine
	fab    *Fabric
	pipe   *Pipeline
	pushes []push
}

type push struct {
	devs []int
	vec  dcqcn.Params
}

func newRig(t *testing.T, cfg Config, n int) *testRig {
	t.Helper()
	rig := &testRig{eng: eventsim.NewEngine(1), fab: cfg.Fabric}
	if rig.fab == nil {
		rig.fab = NewFabric(n)
	}
	rig.pipe = New(cfg, rig.eng, rig.fab, func(devs []int, p dcqcn.Params) {
		cp := append([]int(nil), devs...)
		rig.pushes = append(rig.pushes, push{cp, p})
	}, telemetry.NewRegistry())
	if err := rig.pipe.Resume(dcqcn.DefaultParams(), rig.eng.Now()); err != nil {
		t.Fatal(err)
	}
	return rig
}

func target() dcqcn.Params {
	p := dcqcn.DefaultParams()
	p.KminBytes = 800 << 10
	p.KmaxBytes = 3200 << 10
	return p
}

func TestPipelineCanaryPromoteCommit(t *testing.T) {
	rig := newRig(t, Config{Enabled: true, Canary: 1, SettleIntervals: 2}, 4)
	p := rig.pipe
	tgt := target()

	ok, r := p.SubmitFinal(tgt, 50, rig.eng.Now())
	if !ok {
		t.Fatalf("SubmitFinal rejected: %v", r)
	}
	if p.Phase() != PhaseCanary {
		t.Fatalf("phase = %v, want canary", p.Phase())
	}
	rig.eng.Run() // deliver canary ACKs
	if p.Phase() != PhaseSettle {
		t.Fatalf("phase = %v after ACKs, want settle", p.Phase())
	}
	// Only the canary runs the target so far.
	if rig.fab.Devices[0].Params != tgt {
		t.Fatal("canary device does not run the target")
	}
	if rig.fab.Devices[3].Params == tgt {
		t.Fatal("non-canary device updated before promote")
	}

	healthy := Health{Utility: 50, PauseFrac: 0.01}
	p.Tick(healthy, rig.eng.Now())
	if p.Phase() != PhaseSettle {
		t.Fatalf("settle ended one interval early")
	}
	p.Tick(healthy, rig.eng.Now())
	if p.Phase() != PhasePromote {
		t.Fatalf("phase = %v after settle window, want promote", p.Phase())
	}
	rig.eng.Run() // deliver fabric-wide ACKs
	if p.Phase() != PhaseIdle {
		t.Fatalf("phase = %v after promote ACKs, want idle", p.Phase())
	}
	if p.Commits != 1 {
		t.Fatalf("commits = %d, want 1", p.Commits)
	}
	if got, ok := p.Committed(); !ok || got != tgt {
		t.Fatalf("committed = %+v ok=%v", got, ok)
	}
	if !rig.fab.Converged() {
		t.Fatal("fabric did not converge after commit")
	}
	for i, d := range rig.fab.Devices {
		if d.Params != tgt {
			t.Fatalf("device %d runs %+v, want target", i, d.Params)
		}
	}
}

func TestPipelineHealthAbortRestoresCanaries(t *testing.T) {
	rig := newRig(t, Config{Enabled: true, Canary: 2, SettleIntervals: 3, MaxPauseFrac: 0.3}, 4)
	p := rig.pipe
	prev := dcqcn.DefaultParams()
	tgt := target()

	if ok, _ := p.SubmitFinal(tgt, 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run()
	if p.Phase() != PhaseSettle {
		t.Fatalf("phase = %v, want settle", p.Phase())
	}
	var aborted string
	p.OnAbort = func(restored dcqcn.Params, reason string) {
		if restored != prev {
			t.Fatalf("OnAbort restored %+v, want pre-plan vector", restored)
		}
		aborted = reason
	}
	p.Tick(Health{Utility: 50, PauseFrac: 0.9}, rig.eng.Now())
	if aborted != "health_pfc" {
		t.Fatalf("abort reason = %q, want health_pfc", aborted)
	}
	if p.Phase() != PhaseIdle || p.Aborts != 1 {
		t.Fatalf("phase=%v aborts=%d after health abort", p.Phase(), p.Aborts)
	}
	// Canaries were rolled back to the pre-plan vector under a fresh
	// epoch; devices the plan never reached never changed.
	for i := 0; i < 2; i++ {
		if d := rig.fab.Devices[i]; d.Params != prev {
			t.Fatalf("canary %d runs %+v after abort, want pre-plan vector", i, d.Params)
		}
	}
	for i := 2; i < 4; i++ {
		if d := rig.fab.Devices[i]; d.Applies != 0 {
			t.Fatalf("non-canary device %d saw %d applies during an aborted canary", i, d.Applies)
		}
	}
}

func TestPipelineAckRetryThenCommit(t *testing.T) {
	rig := newRig(t, Config{Enabled: true, Canary: 1, SettleIntervals: 1, AckRetries: 2}, 3)
	p := rig.pipe
	p.FaultAcks(0, 1, 0) // drop the canary's first ACK

	if ok, _ := p.SubmitFinal(target(), 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run() // first wave dropped, deadline fires, retry wave ACKs
	if p.Phase() != PhaseSettle {
		t.Fatalf("phase = %v after retry wave, want settle", p.Phase())
	}
	if p.tm.AckRetries.Value() != 1 {
		t.Fatalf("ack retries = %d, want 1", p.tm.AckRetries.Value())
	}
}

func TestPipelineAckExhaustionAborts(t *testing.T) {
	rig := newRig(t, Config{Enabled: true, Canary: 1, AckRetries: 2}, 3)
	p := rig.pipe
	p.FaultAcks(0, 10, 0) // drop every canary ACK

	if ok, _ := p.SubmitFinal(target(), 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run()
	if p.Phase() != PhaseIdle || p.Aborts != 1 {
		t.Fatalf("phase=%v aborts=%d, want idle/1 after ACK exhaustion", p.Phase(), p.Aborts)
	}
	if rig.fab.Devices[0].Params != dcqcn.DefaultParams() {
		t.Fatal("canary not restored after ACK exhaustion")
	}
}

// TestPipelineCrashRecovery is the tentpole protocol property in
// miniature: kill the controller between canary-apply and promote,
// hand its WAL and fabric to a fresh incarnation, and the fabric must
// converge to exactly one committed epoch.
func TestPipelineCrashRecovery(t *testing.T) {
	wal := &MemWAL{}
	fab := NewFabric(4)
	initial := dcqcn.DefaultParams()
	cfg := Config{Enabled: true, Canary: 1, SettleIntervals: 5, WAL: wal, Fabric: fab}

	rigA := newRig(t, cfg, 4)
	tgt := target()
	if ok, _ := rigA.pipe.SubmitFinal(tgt, 50, rigA.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rigA.eng.Run()
	if rigA.pipe.Phase() != PhaseSettle {
		t.Fatalf("phase = %v, want settle (mid-rollout)", rigA.pipe.Phase())
	}
	// The fabric is now forked: the canary runs the target epoch, the
	// rest run the initial one. Controller A dies here.
	if fab.Converged() {
		t.Fatal("fabric should be mid-rollout (forked)")
	}
	epochA := rigA.pipe.Epoch()

	// Controller B restarts from the same WAL against the same fabric.
	engB := eventsim.NewEngine(1)
	pipeB := New(cfg, engB, fab, nil, telemetry.NewRegistry())
	if err := pipeB.Resume(initial, engB.Now()); err != nil {
		t.Fatal(err)
	}
	if pipeB.Phase() != PhasePromote {
		t.Fatalf("recovery phase = %v, want promote (restore rollout)", pipeB.Phase())
	}
	if pipeB.Epoch() <= epochA {
		t.Fatalf("recovery epoch %d not above pre-crash %d", pipeB.Epoch(), epochA)
	}
	engB.Run() // restore-wave ACKs
	if pipeB.Phase() != PhaseIdle {
		t.Fatalf("phase = %v after recovery, want idle", pipeB.Phase())
	}
	if !fab.Converged() {
		t.Fatalf("fabric did not converge after recovery: epochs %v", fab.Epochs())
	}
	if fab.Devices[0].Params != initial {
		t.Fatalf("recovered fabric runs %+v, want the pre-plan vector", fab.Devices[0].Params)
	}
	if pipeB.CommittedEpoch() != pipeB.Epoch() {
		t.Fatalf("committed epoch %d != granted %d after recovery", pipeB.CommittedEpoch(), pipeB.Epoch())
	}
	for _, d := range fab.Devices {
		if d.Epoch != pipeB.CommittedEpoch() {
			t.Fatalf("device epochs %v, want all %d", fab.Epochs(), pipeB.CommittedEpoch())
		}
	}
}

// errCrash is the panic value crashWAL kills its controller with.
var errCrash = errors.New("controller crashed mid-append")

// crashWAL is a FileWAL whose append number tearAt (counted from zero
// over the wrapper's appends; -1 never) is cut short: only the first
// cut(len) bytes of the record's line reach the file, then the
// controller dies (panics with errCrash) inside the write, as a process
// killed mid-append would leave it.
type crashWAL struct {
	*FileWAL
	path   string
	n      int
	tearAt int
	cut    func(n int) int
}

func (w *crashWAL) Append(r Record) error {
	if w.n != w.tearAt {
		w.n++
		return w.FileWAL.Append(r)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	f.Write(line[:w.cut(len(line))])
	f.Close()
	panic(errCrash)
}

// crashes runs fn and reports whether it died with errCrash.
func crashes(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errCrash {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// TestPipelineFileWALCrashCycles runs TestPipelineCrashRecovery's
// scenario over a FileWAL for several crash/restart cycles. Each cycle a
// controller submits a rollout and dies inside a journal append, leaving
// that record cut mid-line: the canary phase record (devices untouched)
// or the settle phase record (fabric forked), cut at varying offsets,
// including one that leaves the whole record but no newline. Every
// restart must recover an epoch strictly above the last recovered one
// and above every epoch a device holds, drive the fabric to converge on
// one epoch, and keep the journal free of the torn fragment.
func TestPipelineFileWALCrashCycles(t *testing.T) {
	tears := []struct {
		afterIntent int // 1: canary phase record, 2: settle phase record
		cut         func(n int) int
	}{
		{2, func(n int) int { return n / 2 }},
		{1, func(n int) int { return 1 }},
		{2, func(n int) int { return n - 1 }},
		{1, func(n int) int { return 2 * n / 3 }},
	}
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	fab := NewFabric(4)
	initial := dcqcn.DefaultParams()
	var lastEpoch uint64
	for cycle := 0; cycle <= len(tears); cycle++ {
		fw, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if n := len(data); n > 0 && data[n-1] != '\n' {
			t.Fatalf("cycle %d: torn fragment survived the reopen", cycle)
		}
		var held uint64
		for _, d := range fab.Devices {
			held = max(held, d.Epoch)
		}
		w := &crashWAL{FileWAL: fw, path: path, tearAt: -1}
		cfg := Config{Enabled: true, Canary: 1, SettleIntervals: 5, WAL: w, Fabric: fab}
		eng := eventsim.NewEngine(1)
		pipe := New(cfg, eng, fab, nil, telemetry.NewRegistry())
		if err := pipe.Resume(initial, eng.Now()); err != nil {
			t.Fatal(err)
		}
		if cycle > 0 {
			if pipe.Phase() != PhasePromote {
				t.Fatalf("cycle %d: recovery phase = %v, want promote", cycle, pipe.Phase())
			}
			if pipe.Epoch() <= lastEpoch || pipe.Epoch() <= held {
				t.Fatalf("cycle %d: recovered epoch %d not above the last recovered %d and the devices' %d", cycle, pipe.Epoch(), lastEpoch, held)
			}
			lastEpoch = pipe.Epoch()
			eng.Run()
			if pipe.Phase() != PhaseIdle || !fab.Converged() {
				t.Fatalf("cycle %d: phase %v, device epochs %v after recovery", cycle, pipe.Phase(), fab.Epochs())
			}
			for _, d := range fab.Devices {
				if d.Epoch != pipe.Epoch() || d.Params != initial {
					t.Fatalf("cycle %d: device at epoch %d, want %d running the pre-plan vector", cycle, d.Epoch, pipe.Epoch())
				}
			}
		}
		if cycle == len(tears) {
			fw.Close()
			break
		}
		tear := tears[cycle]
		w.tearAt, w.cut = w.n+tear.afterIntent, tear.cut
		if !crashes(func() {
			if ok, r := pipe.SubmitFinal(target(), 50, eng.Now()); !ok {
				t.Fatalf("cycle %d: SubmitFinal rejected: %v", cycle, r)
			}
			eng.Run()
		}) {
			t.Fatalf("cycle %d: controller reached phase %v without crashing", cycle, pipe.Phase())
		}
		if forked := !fab.Converged(); forked != (tear.afterIntent == 2) {
			t.Fatalf("cycle %d: fabric forked = %v at the crash", cycle, forked)
		}
		fw.Close()
	}
}

// TestPipelineRecoveryAfterCommitIsQuiet: a WAL whose last rollout
// committed cleanly must not trigger a recovery rollout.
func TestPipelineRecoveryAfterCommitIsQuiet(t *testing.T) {
	wal := &MemWAL{}
	fab := NewFabric(2)
	cfg := Config{Enabled: true, Canary: 1, SettleIntervals: 1, WAL: wal, Fabric: fab}
	rig := newRig(t, cfg, 2)
	tgt := target()
	if ok, _ := rig.pipe.SubmitFinal(tgt, 50, rig.eng.Now()); !ok {
		t.Fatal("SubmitFinal rejected")
	}
	rig.eng.Run()
	rig.pipe.Tick(Health{Utility: 50}, rig.eng.Now())
	rig.eng.Run()
	if rig.pipe.Commits != 1 {
		t.Fatalf("commits = %d, want 1", rig.pipe.Commits)
	}
	walLen := wal.Len()

	engB := eventsim.NewEngine(1)
	pipeB := New(cfg, engB, fab, nil, telemetry.NewRegistry())
	if err := pipeB.Resume(dcqcn.DefaultParams(), engB.Now()); err != nil {
		t.Fatal(err)
	}
	if pipeB.Phase() != PhaseIdle {
		t.Fatalf("clean restart started a rollout (phase %v)", pipeB.Phase())
	}
	if wal.Len() != walLen {
		t.Fatalf("clean restart appended %d WAL records", wal.Len()-walLen)
	}
	if got, ok := pipeB.Committed(); !ok || got != tgt {
		t.Fatalf("restart lost the committed vector: %+v ok=%v", got, ok)
	}
}

func TestPipelineRejectLeavesFabricUntouched(t *testing.T) {
	rig := newRig(t, Config{Enabled: true}, 3)
	p := rig.pipe
	before := rig.fab.Epochs()

	bad := dcqcn.DefaultParams()
	bad.PMax = 2.0
	if ok, r := p.SubmitExplore(bad, rig.eng.Now()); ok || r != RejectBounds {
		t.Fatalf("out-of-bounds vector admitted (ok=%v r=%v)", ok, r)
	}
	if ok, r := p.SubmitFinal(bad, 50, rig.eng.Now()); ok || r != RejectBounds {
		t.Fatalf("out-of-bounds final admitted (ok=%v r=%v)", ok, r)
	}
	rig.eng.Run()
	if len(rig.pushes) != 0 {
		t.Fatalf("rejected vectors reached the network: %+v", rig.pushes)
	}
	for i, e := range rig.fab.Epochs() {
		if e != before[i] {
			t.Fatal("rejected vector moved a device epoch")
		}
	}
	if p.Guard().Rejects() != 2 || p.tm.Rejects.Value() != 2 {
		t.Fatalf("rejects guard=%d metric=%d, want 2/2", p.Guard().Rejects(), p.tm.Rejects.Value())
	}
}

func TestPipelineExploreAppliesDirectly(t *testing.T) {
	rig := newRig(t, Config{Enabled: true}, 3)
	p := rig.pipe
	tgt := target()
	if ok, r := p.SubmitExplore(tgt, rig.eng.Now()); !ok {
		t.Fatalf("explore rejected: %v", r)
	}
	for i, d := range rig.fab.Devices {
		if d.Params != tgt {
			t.Fatalf("device %d missed the explore dispatch", i)
		}
	}
	if len(rig.pushes) != 1 || len(rig.pushes[0].devs) != 3 {
		t.Fatalf("pushes = %+v, want one fabric-wide push", rig.pushes)
	}
	// A second explore while idle is fine; one during a plan is not.
	if ok, _ := p.SubmitFinal(target2(), 50, rig.eng.Now()); !ok {
		t.Fatal("final rejected")
	}
	if ok, r := p.SubmitExplore(tgt, rig.eng.Now()); ok || r != RejectInFlight {
		t.Fatalf("explore during plan: ok=%v r=%v, want RejectInFlight", ok, r)
	}
}

func target2() dcqcn.Params {
	p := dcqcn.DefaultParams()
	p.PMax = 0.4
	return p
}

package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dcqcn"
)

func TestMemWALRoundTrip(t *testing.T) {
	w := &MemWAL{}
	p := dcqcn.DefaultParams()
	recs := []Record{
		{T: 1, Kind: KindIntent, Epoch: 3, Params: &p, Hash: VectorHash(&p), Canary: 1},
		{T: 2, Kind: KindPhase, Epoch: 3, Phase: "canary"},
		{T: 3, Kind: KindCommit, Epoch: 3, Params: &p, Hash: VectorHash(&p)},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := w.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Epoch != recs[i].Epoch {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestFileWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	p := dcqcn.DefaultParams()
	if err := w.Append(Record{T: 1, Kind: KindIntent, Epoch: 7, Params: &p, Hash: VectorHash(&p)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{T: 2, Kind: KindAbort, Epoch: 7, Phase: "canary", Reason: "health_pfc"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Reopen, as a restarted daemon would.
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindIntent || got[1].Reason != "health_pfc" {
		t.Fatalf("replay = %+v", got)
	}
	if got[0].Params == nil || got[0].Params.KminBytes != p.KminBytes {
		t.Fatalf("intent params did not survive the file round trip: %+v", got[0].Params)
	}
}

func TestFileWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{T: 1, Kind: KindEpoch, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate a crash mid-append: a torn, undecodable trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":2,"kind":"int`)
	f.Close()

	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("torn tail not skipped: %+v", got)
	}
}

// walEpochs replays the journal at path and returns each record's epoch.
func walEpochs(t *testing.T, w *FileWAL) []uint64 {
	t.Helper()
	recs, err := w.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, r := range recs {
		out = append(out, r.Epoch)
	}
	return out
}

func appendEpochs(t *testing.T, w *FileWAL, epochs ...uint64) {
	t.Helper()
	for _, e := range epochs {
		if err := w.Append(Record{T: int64(e), Kind: KindEpoch, Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileWALTornTailThenAppend is the restart-after-torn-write case: the
// records committed after the restart must follow the durable ones, not
// hide behind the torn fragment.
func TestFileWALTornTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dispatch.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, w, 1)
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":2,"kind":"epo`)
	f.Close()

	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	appendEpochs(t, w2, 2, 3)
	if got := fmt.Sprint(walEpochs(t, w2)); got != "[1 2 3]" {
		t.Fatalf("replay after torn tail and restart = %s, want [1 2 3]", got)
	}
}

// TestFileWALCrashAtEveryOffset cuts the journal at every byte offset of
// its last record, as a crash mid-append could, then restarts and
// appends. The recovered records must be a prefix of the committed ones,
// followed by everything appended after the restart.
func TestFileWALCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	w, err := OpenFileWAL(full)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, w, 1)
	w.Close()
	one, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	w, err = OpenFileWAL(full)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, w, 2)
	w.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for off := len(one); off <= len(data); off++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.wal", off))
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		want := "[1]"
		if off == len(data) {
			want = "[1 2]"
		}
		if got := fmt.Sprint(walEpochs(t, w)); got != want {
			t.Fatalf("cut at %d: recovered %s, want %s", off, got, want)
		}
		appendEpochs(t, w, 3)
		want = want[:len(want)-1] + " 3]"
		if got := fmt.Sprint(walEpochs(t, w)); got != want {
			t.Fatalf("cut at %d: after restart and append, replay = %s, want %s", off, got, want)
		}
		w.Close()
	}
}

// walPrefix is the reference reading of a journal file: the records of
// its complete, decodable lines up to the first line that is not (blank
// lines skipped), and their byte length.
func walPrefix(data []byte) ([]Record, int) {
	var recs []Record
	n := 0
	for {
		i := bytes.IndexByte(data[n:], '\n')
		if i < 0 {
			return recs, n
		}
		line := bytes.TrimRight(data[n:n+i], "\r")
		if len(line) > 0 {
			var r Record
			if json.Unmarshal(line, &r) != nil {
				return recs, n
			}
			recs = append(recs, r)
		}
		n += i + 1
	}
}

// FuzzWALReplay writes arbitrary bytes as the journal file, opens it and
// replays it: neither may panic, the records returned are the longest
// prefix of complete, decodable lines, and records appended after the
// open replay right after them.
func FuzzWALReplay(f *testing.F) {
	p := dcqcn.DefaultParams()
	line, _ := json.Marshal(Record{T: 1, Kind: KindIntent, Epoch: 4, Params: &p, Hash: VectorHash(&p)})
	f.Add([]byte{})
	f.Add(append(line, '\n'))
	f.Add(append(append(line, '\n'), line[:len(line)/2]...))
	f.Add([]byte("{\"t\":1,\"kind\":\"epoch\",\"epoch\":1}\r\n\n\r\r\n{\"t\":2,\"kind\":\"epoch\",\"epoch\":2}\nnull\n{\"t\":"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, _ := walPrefix(data)
		w, err := OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		got, err := w.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("replay = %+v, want %+v", got, want)
		}
		more := []Record{{T: 7, Kind: KindEpoch, Epoch: 1 << 40}, {T: 8, Kind: KindCommit, Epoch: 1<<40 + 1, Params: &p, Reason: "after"}}
		for _, r := range more {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err = w.Replay()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, more...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay after append = %+v, want %+v", got, want)
		}
	})
}

func TestRecoverFolding(t *testing.T) {
	p := dcqcn.DefaultParams()
	q := dcqcn.ExpertParams()

	t.Run("clean_commit", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindIntent, Epoch: 1, Params: &p})
		w.Append(Record{T: 2, Kind: KindPhase, Epoch: 1, Phase: "canary"})
		w.Append(Record{T: 3, Kind: KindCommit, Epoch: 1, Params: &p})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.InFlight != nil {
			t.Fatalf("committed rollout reported in flight: %+v", rec.InFlight)
		}
		if rec.Epoch != 1 || rec.CommittedEpoch != 1 || rec.Committed == nil {
			t.Fatalf("recovery = %+v", rec)
		}
	})

	t.Run("orphaned_mid_settle", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindCommit, Epoch: 2, Params: &p})
		w.Append(Record{T: 2, Kind: KindIntent, Epoch: 5, Params: &q})
		w.Append(Record{T: 3, Kind: KindPhase, Epoch: 5, Phase: "canary"})
		w.Append(Record{T: 4, Kind: KindPhase, Epoch: 5, Phase: "settle"})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.InFlight == nil || rec.InFlight.Epoch != 5 || rec.InFlightPhase != "settle" {
			t.Fatalf("orphan not detected: %+v", rec)
		}
		if rec.Epoch != 5 {
			t.Fatalf("epoch = %d, want 5", rec.Epoch)
		}
		if rec.Committed == nil || rec.Committed.KminBytes != p.KminBytes || rec.CommittedEpoch != 2 {
			t.Fatalf("committed = %+v @%d", rec.Committed, rec.CommittedEpoch)
		}
	})

	t.Run("aborted_is_not_in_flight", func(t *testing.T) {
		w := &MemWAL{}
		w.Append(Record{T: 1, Kind: KindIntent, Epoch: 3, Params: &q})
		w.Append(Record{T: 2, Kind: KindAbort, Epoch: 3, Reason: "ack_timeout"})
		w.Append(Record{T: 3, Kind: KindEpoch, Epoch: 4})
		rec, err := Recover(w)
		if err != nil {
			t.Fatal(err)
		}
		if rec.InFlight != nil {
			t.Fatalf("aborted rollout reported in flight")
		}
		if rec.Epoch != 4 {
			t.Fatalf("epoch = %d, want 4 (epoch grants count)", rec.Epoch)
		}
	})
}

package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vtdynamics/internal/obs"
)

// storeMetas is the store's sample index in its on-disk encoding, so
// metas compare equal across a round trip through the file.
func storeMetas(s *Store) map[string]metaRow {
	out := make(map[string]metaRow)
	for h, m := range s.snapshotSamples() {
		out[h] = metaFrom(m)
	}
	return out
}

// multistreamMetas decodes samples.jsonl.gz bytes the way builds
// without the member-wise loader did: one multistream gzip reader, one
// JSON stream, a later row for a hash overriding an earlier one.
func multistreamMetas(data []byte) (map[string]metaRow, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(zr)
	out := make(map[string]metaRow)
	for {
		var m struct {
			Meta metaRow `json:"m"`
		}
		if err := dec.Decode(&m); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out[m.Meta.SHA] = metaFrom(m.Meta.toMeta()) // as the store keeps it
	}
}

func readSamplesFile(t testing.TB, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, samplesFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// samplesCampaign builds a synced, still-open store in dir whose
// samples.jsonl.gz is a snapshot member followed by two delta members;
// the last delta only updates samples that already exist, so the rows
// of every Sync stay covered by the metas of the one before. It
// returns the store and the file's length and the store's metas after
// each of the three Syncs.
func samplesCampaign(t testing.TB, dir string, opts ...Option) (*Store, []int64, []map[string]metaRow) {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rounds := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // snapshot: the first write compacts
		{2, 5, 10},                     // delta: two updates, one new sample
		{1, 7},                         // delta: updates only
	}
	var lens []int64
	var metas []map[string]metaRow
	for r, round := range rounds {
		for _, i := range round {
			at := t0.Add(time.Duration(r*24+i) * time.Hour)
			if err := s.Put(envelope(fmt.Sprintf("smp%02d", i), at, (r+i)%4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		lens = append(lens, int64(len(readSamplesFile(t, dir))))
		metas = append(metas, storeMetas(s))
	}
	return s, lens, metas
}

// TestSyncAppendsSampleDeltas pins the log layout: each Sync appends
// one member holding only the changed samples behind the bytes already
// written, every prefix decodes to the metas of its Sync, and Close
// compacts the log back to the single member WriteSamplesSnapshot
// encodes.
func TestSyncAppendsSampleDeltas(t *testing.T) {
	dir := t.TempDir()
	s, lens, metas := samplesCampaign(t, dir)
	file := readSamplesFile(t, dir)
	for i, n := range lens {
		got, log, err := decodeSamplesSnapshot(file[:n])
		if err != nil {
			t.Fatalf("prefix after Sync %d: %v", i+1, err)
		}
		if log.members != i+1 || log.clean != n {
			t.Fatalf("prefix after Sync %d: %d members over %d bytes, want %d over %d", i+1, log.members, log.clean, i+1, n)
		}
		want := map[string]metaRow{}
		for h, m := range got {
			want[h] = metaFrom(m)
		}
		if !reflect.DeepEqual(want, metas[i]) {
			t.Fatalf("prefix after Sync %d decodes to other metas", i+1)
		}
	}
	if _, log, _ := decodeSamplesSnapshot(file); log.delta != 3+2 {
		t.Fatalf("delta rows = %d, want the 5 changed samples", log.delta)
	}
	// A Sync with nothing changed writes nothing.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSamplesFile(t, dir), file) {
		t.Fatal("Sync without changes rewrote samples.jsonl.gz")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := s.WriteSamplesSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSamplesFile(t, dir), want.Bytes()) {
		t.Fatal("Close did not compact samples.jsonl.gz to the full snapshot")
	}
}

// TestSampleDeltaCrashPoints tears the last delta member at every byte
// offset, as a crash mid-append would. Reopening must recover exactly
// the previous Sync's metas, the next Sync must cut the torn tail
// before appending, Close must leave the canonical full snapshot, and
// RepairDir must drop the tail on its own.
func TestSampleDeltaCrashPoints(t *testing.T) {
	src := t.TempDir()
	_, lens, metas := samplesCampaign(t, src)
	clean := readSamplesFile(t, src)[:lens[1]]
	for off := lens[1]; off < lens[2]; off++ {
		dir := copyFixture(t, src)
		if err := os.Truncate(filepath.Join(dir, samplesFile), off); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		if got := storeMetas(s); !reflect.DeepEqual(got, metas[1]) {
			t.Fatalf("offset %d: reopened with %d metas, not the previous Sync's %d", off, len(got), len(metas[1]))
		}
		if err := s.Put(envelope("smp03", t0.AddDate(0, 0, 5), 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(envelope("smp11", t0.AddDate(0, 0, 5), 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("offset %d: sync: %v", off, err)
		}
		file := readSamplesFile(t, dir)
		if !bytes.HasPrefix(file, clean) {
			t.Fatalf("offset %d: Sync disturbed the clean prefix", off)
		}
		if _, log, err := decodeSamplesSnapshot(file); err != nil || log.members != 3 {
			t.Fatalf("offset %d: after Sync the file has %d members (err %v), want snapshot + 2 deltas", off, log.members, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := s.WriteSamplesSnapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readSamplesFile(t, dir), want.Bytes()) {
			t.Fatalf("offset %d: closed file is not the full snapshot", off)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Verify(); err != nil {
			t.Fatalf("offset %d: verify: %v", off, err)
		}

		repaired := copyFixture(t, src)
		if err := os.Truncate(filepath.Join(repaired, samplesFile), off); err != nil {
			t.Fatal(err)
		}
		rs, err := RepairDir(repaired)
		if err != nil {
			t.Fatalf("offset %d: repair: %v", off, err)
		}
		if rs.TruncatedBytes != off-lens[1] || !bytes.Equal(readSamplesFile(t, repaired), clean) {
			t.Fatalf("offset %d: repair dropped %d bytes, want %d", off, rs.TruncatedBytes, off-lens[1])
		}
	}
}

// TestSyncSampleRowsLinear pins the checkpoint complexity: a 30-Sync
// campaign over N Puts writes at most 3·N sample-metadata rows in
// total, Close included. Rewriting the whole snapshot at every Sync
// instead writes the live count each time: 5,091 rows for this
// campaign's 600 Puts, 2.8 times the bound.
func TestSyncSampleRowsLinear(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	const syncs, perSync = 30, 20
	rng := rand.New(rand.NewSource(7))
	puts := 0
	for k := 0; k < syncs; k++ {
		for j := 0; j < perSync; j++ {
			sha := fmt.Sprintf("lin%04d", rng.Intn(puts+1))
			if err := s.Put(envelope(sha, t0.Add(time.Duration(puts)*time.Minute), j%5)); err != nil {
				t.Fatal(err)
			}
			puts++
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	delta := reg.Counter("store_samples_rows_written_total", "kind", "delta").Value()
	full := reg.Counter("store_samples_rows_written_total", "kind", "full").Value()
	if delta == 0 || full == 0 {
		t.Fatalf("delta %d, full %d rows: the campaign must both append and compact", delta, full)
	}
	if total := delta + full; total > 3*int64(puts) {
		t.Fatalf("%d Syncs over %d Puts wrote %d meta rows (%d delta + %d full), bound %d",
			syncs, puts, total, delta, full, 3*puts)
	}
	if n := reg.Histogram("store_sync_seconds", obs.DefBuckets).Snapshot().Count; n != syncs {
		t.Fatalf("store_sync_seconds counted %d Syncs, want %d", n, syncs)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"store_sync_seconds_count",
		`store_samples_rows_written_total{kind="delta"}`,
		`store_samples_rows_written_total{kind="full"}`,
	} {
		if !strings.Contains(text.String(), series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

// TestStateFileRenameFailureRemovesTemp makes every state-file target
// a directory, so each temp-file rename fails: the write must report
// the error, leave no .tmp file behind, and (for the snapshot appliers)
// leave the store's state untouched.
func TestStateFileRenameFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("tmp01", t0, 1)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.WriteSamplesSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	before := storeMetas(s)
	for _, name := range []string{samplesFile, "stats.json"} {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	noTemp := func(op string) {
		t.Helper()
		matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if len(matches) != 0 {
			t.Fatalf("%s leaked %v", op, matches)
		}
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync succeeded with samples.jsonl.gz a directory")
	}
	noTemp("Sync")
	if err := s.Close(); err == nil {
		t.Fatal("Close succeeded with samples.jsonl.gz a directory")
	}
	noTemp("Close")
	if err := s.ApplySamplesSnapshot(snap.Bytes()); err == nil {
		t.Fatal("ApplySamplesSnapshot succeeded with samples.jsonl.gz a directory")
	}
	noTemp("ApplySamplesSnapshot")
	if err := s.ApplyStatsSnapshot([]byte(`{}`)); err == nil {
		t.Fatal("ApplyStatsSnapshot succeeded with stats.json a directory")
	}
	noTemp("ApplyStatsSnapshot")
	if got := storeMetas(s); !reflect.DeepEqual(got, before) {
		t.Fatal("failed snapshot writes changed the sample index")
	}
	if st := s.Stats(MonthKey(t0)); st.Reports != 1 {
		t.Fatalf("failed stats apply changed the accounting: %+v", st)
	}
	// The failed writes left the sample dirty: once the targets can be
	// files again, the next Sync persists it.
	for _, name := range []string{samplesFile, "stats.json"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSamplesFile(t, dir), snap.Bytes()) {
		t.Fatal("retried Sync did not persist the sample")
	}
}

// TestConcurrentSyncSampleLog races Puts against a Sync loop: every
// prefix the loop leaves on disk must decode, and once writers stop, a
// final Sync must leave a log that reopens to exactly the live metas.
func TestConcurrentSyncSampleLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perW = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				sha := fmt.Sprintf("cc%02d", (w*7+i)%24) // shared across writers
				if err := s.Put(envelope(sha, t0.Add(time.Duration(w*perW+i)*time.Minute), i%3)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeSamplesSnapshot(readSamplesFile(t, dir)); err != nil {
			t.Fatalf("log left by Sync does not decode: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := storeMetas(r), storeMetas(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened log holds %d metas, live index %d (or values differ)", len(got), len(want))
	}
}

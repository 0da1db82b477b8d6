package store

import (
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vtdynamics/internal/report"
)

// appendRawMember appends one row to a partition as its own gzip
// member without going through the store — the shape an old build or
// external tool would leave behind.
func appendRawMember(t *testing.T, dir, month string, env report.Envelope) error {
	t.Helper()
	enc, _, err := encodeEnvelope(&env, nil)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "scans-"+month+".jsonl.gz"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(append(enc.line, '\n')); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return f.Close()
}

// fillStore writes n samples with small rows and returns their hashes.
func fillStore(t *testing.T, s *Store, n int) []string {
	t.Helper()
	shas := make([]string, n)
	for i := 0; i < n; i++ {
		sha := fmt.Sprintf("ix%04d", i)
		shas[i] = sha
		env := envelope(sha, t0.Add(time.Duration(i)*time.Minute), i%6)
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
	}
	return shas
}

func TestBlockCuttingProducesMultipleMembers(t *testing.T) {
	dir := t.TempDir()
	// Tiny block target: every few rows cut a member.
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	shas := fillStore(t, s, 200)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ix := s.index("2021-05")
	if ix == nil {
		t.Fatal("fresh partition has no index")
	}
	blocks := ix.snapshotBlocks()
	if len(blocks) < 4 {
		t.Fatalf("expected several blocks, got %d", len(blocks))
	}
	// Blocks tile the file exactly.
	fi, err := os.Stat(s.partPath("2021-05"))
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	rows := 0
	for _, bm := range blocks {
		if bm.Offset != off {
			t.Fatalf("block offset %d, want %d", bm.Offset, off)
		}
		off += bm.Len
		rows += bm.Rows
	}
	if off != fi.Size() {
		t.Fatalf("blocks cover %d bytes, file has %d", off, fi.Size())
	}
	if rows != 200 {
		t.Fatalf("blocks hold %d rows, want 200", rows)
	}
	// Sidecar exists and every sample still reads back.
	if _, err := os.Stat(sidecarPath(dir, "2021-05")); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	for _, sha := range shas {
		h, err := s.Get(sha)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Reports) != 1 {
			t.Fatalf("%s: %d reports", sha, len(h.Reports))
		}
	}
}

func TestReopenUsesSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 100)
	want := s.TotalStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !allSidecars(s2) {
		t.Fatal("reopened store did not load its sidecar")
	}
	if got := s2.TotalStats(); got.Reports != want.Reports || got.RawBytes != want.RawBytes {
		t.Fatalf("sidecar fast-path stats %+v, want %+v", got, want)
	}
	h, err := s2.Get("ix0042")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 1 || h.Reports[0].AVRank != 42%6 {
		t.Fatalf("history = %+v", h.Reports)
	}
}

// allSidecars reports whether every month of s reads through a
// sidecar on disk.
func allSidecars(s *Store) bool {
	for _, v := range s.SidecarVersions() {
		if v == 0 {
			return false
		}
	}
	return true
}

// noSidecars reports whether no month of s has a usable sidecar on
// disk, i.e. every month reads through an index built at Open.
func noSidecars(s *Store) bool {
	for _, v := range s.SidecarVersions() {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestStaleSidecarIndexedAtOpen: a partition grown behind its
// sidecar's back (as an old build, crash, or external tool would
// leave it) is indexed from its bytes at Open, so reads see every
// row, and Reindex heals the sidecar in place.
func TestStaleSidecarIndexedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendRawMember(t, dir, "2021-05", envelope("ix0007", t0.Add(90*time.Minute), 2)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !noSidecars(s2) {
		t.Fatal("stale sidecar was trusted")
	}
	h, err := s2.Get("ix0007")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 {
		t.Fatalf("in-memory index missed the appended row: %+v", h.Reports)
	}
	if err := s2.Reindex(); err != nil {
		t.Fatal(err)
	}
	if !allSidecars(s2) {
		t.Fatal("Reindex did not restore the sidecar")
	}
	s2.cache.invalidate("ix0007")
	if h, err := s2.Get("ix0007"); err != nil || len(h.Reports) != 2 {
		t.Fatalf("read after heal: %v %+v", err, h)
	}
}

func TestCorruptSidecarIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecarPath(dir, "2021-05"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !noSidecars(s2) {
		t.Fatal("corrupt sidecar was trusted")
	}
	if h, err := s2.Get("ix0003"); err != nil || len(h.Reports) != 1 {
		t.Fatalf("read without sidecar: %v %+v", err, h)
	}
}

func TestReindexMatchesWriterIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 120)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.index("2021-05")
	if live == nil {
		t.Fatal("no live index")
	}
	rebuilt, end, err := walkPartition(s.partPath("2021-05"), formatMax)
	if err != nil {
		t.Fatal(err)
	}
	if _, size := live.state(); end != size {
		t.Fatalf("walk ended at %d, partition holds %d", end, size)
	}
	if !reflect.DeepEqual(live.snapshotBlocks(), rebuilt.snapshotBlocks()) {
		t.Fatalf("rebuilt blocks diverge:\nlive    %+v\nrebuilt %+v",
			live.snapshotBlocks(), rebuilt.snapshotBlocks())
	}
	for _, sha := range []string{"ix0000", "ix0055", "ix0119"} {
		if !reflect.DeepEqual(live.blocksFor(sha), rebuilt.blocksFor(sha)) {
			t.Fatalf("%s: postings diverge", sha)
		}
	}
}

func TestDeleteSidecarThenReindex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 80)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sidecarPath(dir, "2021-05")); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !noSidecars(s2) {
		t.Fatal("store reports a sidecar it does not have")
	}
	inMemory, err := s2.Get("ix0031")
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Reindex(); err != nil {
		t.Fatal(err)
	}
	if !allSidecars(s2) {
		t.Fatal("Reindex left the store without sidecars")
	}
	// The sidecar-backed read returns exactly what the in-memory index
	// returned. (Invalidate the cached copy first so Get really reads.)
	s2.cache.invalidate("ix0031")
	indexed, err := s2.Get("ix0031")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inMemory, indexed) {
		t.Fatalf("sidecar-backed read diverges:\nin-memory %+v\nsidecar   %+v", inMemory, indexed)
	}
	// And the new sidecar survives a reopen.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !allSidecars(s3) {
		t.Fatal("healed sidecar not loaded on reopen")
	}
}

// dirState captures every file name and its bytes.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// removeSidecars deletes every index sidecar in dir.
func removeSidecars(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSidecarlessStoreReadsWriteNothing pins the contract for a store
// whose sidecars are gone: Open indexes every month in memory, every
// read equals the sidecar-backed store's, and neither Open nor any
// read path writes a file.
func TestSidecarlessStoreReadsWriteNothing(t *testing.T) {
	for _, format := range []int{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, WithBlockSize(2<<10), WithFormat(format))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 90; i++ {
				at := t0.Add(time.Duration(i%3)*31*24*time.Hour + time.Duration(i)*time.Minute)
				if err := s.Put(envelope(fmt.Sprintf("nw%03d", i%40), at, i%6)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			withSidecars, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotStore(t, withSidecars)
			wantRows, err := withSidecars.Verify()
			if err != nil {
				t.Fatal(err)
			}

			removeSidecars(t, dir)
			before := dirState(t, dir)
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for month, ver := range s2.SidecarVersions() {
				if ver != 0 {
					t.Fatalf("%s: sidecar version %d without a sidecar", month, ver)
				}
			}
			if got := snapshotStore(t, s2); !reflect.DeepEqual(got, want) {
				t.Fatalf("reads diverge from the sidecar-backed store:\n got %+v\nwant %+v", got, want)
			}
			var census CountAgg
			if _, err := s2.Scan(Query{Cols: ColAll}, &census); err != nil || census.N != int64(wantRows) {
				t.Fatalf("Scan counted %d rows (%v), want %d", census.N, err, wantRows)
			}
			var iterated atomic.Int64
			if err := s2.IterAll(2, func(string, *report.ScanReport) error {
				iterated.Add(1)
				return nil
			}); err != nil || iterated.Load() != int64(wantRows) {
				t.Fatalf("IterAll saw %d rows (%v), want %d", iterated.Load(), err, wantRows)
			}
			if n, err := s2.Verify(); err != nil || n != wantRows {
				t.Fatalf("Verify = %d, %v; want %d", n, err, wantRows)
			}
			if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("opening and reading a sidecar-less store changed its directory")
			}
		})
	}
}

// TestAppendToSidecarlessPartitionWritesReindexSidecar: the first
// Put+Flush into a month indexed in memory at Open persists a sidecar
// byte-identical to the one Reindex writes for the grown partition.
func TestAppendToSidecarlessPartitionWritesReindexSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 60)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	removeSidecars(t, dir)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(envelope("late", t0.Add(time.Hour), 3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !allSidecars(s2) {
		t.Fatal("Flush did not persist the grown month's sidecar")
	}
	written, err := os.ReadFile(sidecarPath(dir, "2021-05"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sha := range []string{"ix0000", "late"} {
		if h, err := s2.Get(sha); err != nil || len(h.Reports) != 1 {
			t.Fatalf("%s: %v %+v", sha, err, h)
		}
	}
	if err := s2.Reindex(); err != nil {
		t.Fatal(err)
	}
	reindexed, err := os.ReadFile(sidecarPath(dir, "2021-05"))
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != string(reindexed) {
		t.Fatalf("Flush-written sidecar differs from Reindex's:\nflush   %s\nreindex %s", written, reindexed)
	}
}

// TestWriteToPartitionGrownUnderOpenStore: a partition that changes
// size under an open store no longer matches its index, so the next
// write into it fails with ErrIndexMismatch instead of leaving holes
// in the index; Reindex re-walks the bytes and writes resume.
func TestWriteToPartitionGrownUnderOpenStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := appendRawMember(t, dir, "2021-05", envelope("ix0003", t0.Add(time.Hour), 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("after", t0.Add(2*time.Hour), 1)); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("Put into a grown partition: %v, want ErrIndexMismatch", err)
	}
	if err := s.Reindex(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("after", t0.Add(2*time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	s.cache.invalidate("ix0003")
	if h, err := s.Get("ix0003"); err != nil || len(h.Reports) != 2 {
		t.Fatalf("ix0003 after Reindex: %v %+v", err, h)
	}
	if n, err := s.Verify(); err != nil || n != 12 {
		t.Fatalf("Verify = %d, %v; want 12", n, err)
	}
}

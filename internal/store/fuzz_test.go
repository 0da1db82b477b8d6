package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
)

// FuzzStoreRowRoundTrip fuzzes the partition row codec: a scan report
// encoded with rowFromScan, serialized through encoding/json exactly
// as Put writes it, decoded, and lifted back with rowToReport must
// reproduce the normalized report byte-for-byte. "Normalized" means
// what rowFromScan is documented to do — strings coerced to valid
// UTF-8 and timestamps passed through the zero-preserving unix
// encoding; beyond that nothing may change.
//
// This fuzzer is what surfaced the two seed-codec asymmetries now
// fixed in rowFromScan: engine label strings containing invalid UTF-8
// were silently rewritten by json.Marshal (so Get returned different
// bytes than Put accepted), and the direct AnalysisDate.Unix() call
// turned the zero time into year-1 garbage instead of preserving it.
func FuzzStoreRowRoundTrip(f *testing.F) {
	// Seeds from the store_test fixtures plus the two historic bugs.
	f.Add("aaa", "Win32 EXE", int64(1619827200), 2, 70, "Avast", int8(1), 17, "Trojan.Gen")
	f.Add("bbb", "PDF", int64(1622505600), 0, 68, "BitDefender", int8(0), 9, "")
	f.Add("", "", int64(0), 0, 0, "", int8(0), 0, "")
	f.Add("sha\xffbad", "PE32", int64(-7), -3, 1<<20, "Eng\xc3", int8(-2), -1, "lab\xe2\x28el")
	f.Add("zzz", "Android", int64(1), 95, 95, "Kaspersky", int8(3), 1<<30, "not-a-virus:HEUR\xf0")

	f.Fuzz(func(t *testing.T, sha, ft string, at int64, rank, tot int, eng string, verdict int8, sigver int, label string) {
		orig := &report.ScanReport{
			SHA256:       sha,
			FileType:     ft,
			AnalysisDate: fromUnix(at),
			AVRank:       rank,
			EnginesTotal: tot,
			Results: []report.EngineResult{{
				Engine:           eng,
				Verdict:          report.Verdict(verdict),
				SignatureVersion: sigver,
				Label:            label,
			}},
		}

		line, err := json.Marshal(rowFromScan(orig))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back scanRow
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("unmarshal %q: %v", line, err)
		}
		got := rowToReport(back)

		want := &report.ScanReport{
			SHA256:       validUTF8(sha),
			FileType:     validUTF8(ft),
			AnalysisDate: fromUnix(at),
			AVRank:       rank,
			EnginesTotal: tot,
			Results: []report.EngineResult{{
				Engine:           validUTF8(eng),
				Verdict:          report.Verdict(verdict),
				SignatureVersion: sigver,
				Label:            validUTF8(label),
			}},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v\nline %q", got, want, line)
		}
		// The codec must stay idempotent: re-encoding what came back
		// yields the same line (what Verify relies on when it re-reads
		// partitions).
		line2, err := json.Marshal(rowFromScan(got))
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(line) != string(line2) {
			t.Fatalf("re-encoding not idempotent:\n first %q\nsecond %q", line, line2)
		}
	})
}

// TestRowCodecZeroTime pins the zero-time behavior the fuzzer relies
// on: a zero AnalysisDate survives the row codec as a zero time, not
// as 1970-01-01 or a year-1 artifact.
func TestRowCodecZeroTime(t *testing.T) {
	r := &report.ScanReport{SHA256: "z", Results: []report.EngineResult{}}
	row := rowFromScan(r)
	if row.At != 0 {
		t.Fatalf("zero time encoded as %d", row.At)
	}
	if got := rowToReport(row).AnalysisDate; !got.IsZero() {
		t.Fatalf("zero time decoded as %v", got)
	}
	if ts := unix(time.Unix(0, 0).UTC()); ts != 0 {
		// The epoch instant itself collides with the zero sentinel by
		// design; document it here so a future change is deliberate.
		t.Fatalf("epoch encoded as %d", ts)
	}
}

// goldenPayloads seeds the arbitrary-byte decoder fuzzers with every
// member payload of the committed golden-v1 and golden-v2 partitions.
func goldenPayloads(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, dir := range []string{goldenDir, goldenDirV2} {
		parts, err := filepath.Glob(filepath.Join(dir, "scans-*.jsonl.gz"))
		if err != nil || len(parts) == 0 {
			f.Fatalf("golden partitions in %s: %v", dir, err)
		}
		for _, part := range parts {
			b, err := os.ReadFile(part)
			if err != nil {
				f.Fatal(err)
			}
			br := bytes.NewReader(b)
			zr, err := gzip.NewReader(br)
			if err != nil {
				f.Fatal(err)
			}
			for {
				zr.Multistream(false)
				payload, err := io.ReadAll(zr)
				if err != nil {
					f.Fatal(err)
				}
				out = append(out, payload)
				if err := zr.Reset(br); err == io.EOF {
					break
				} else if err != nil {
					f.Fatal(err)
				}
			}
		}
	}
	return out
}

// linesPartial renders every fed row, for comparing decoders.
type linesPartial struct{ lines []string }

func (p *linesPartial) Row(rv *RowView) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d|%d", rv.SHA, rv.FT, rv.At, rv.Rank, rv.Tot)
	for _, r := range rv.Res {
		fmt.Fprintf(&b, "|%s,%s,%d,%d", r.Eng, r.Lab, r.Sig, r.Ver)
	}
	p.lines = append(p.lines, b.String())
	return nil
}

// FuzzScanColPushdownBytes feeds arbitrary payloads through the scan
// engine's v2 decoder twice — an eager full-projection query and a
// lazy SHA-predicate query (Get's shape) — and demands an error or
// rows, never a panic. The lazy run guards the dictionary accessor,
// which re-reads entries that walk bounds-checked. Whenever the full
// reference decoder (forEachRow) accepts the payload too, both runs
// must feed exactly its rows.
func FuzzScanColPushdownBytes(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte(colMagic + "\x02"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var ref []string
		cb, refErr := parseColumnarBlock(payload)
		if refErr == nil {
			refErr = cb.forEachRow(func(row *scanRow) error {
				var b strings.Builder
				fmt.Fprintf(&b, "%s|%s|%d|%d|%d", row.SHA, row.FT, row.At, row.Rank, row.Tot)
				for _, r := range row.Res {
					fmt.Fprintf(&b, "|%s,%s,%d,%d", r.E, r.L, r.S, r.V)
				}
				ref = append(ref, b.String())
				return nil
			})
		}
		var eager linesPartial
		_, eagerErr := scanColPushdown(payload, compileQuery(Query{Cols: ColAll}), "m", &eager)
		if eagerErr == nil && refErr == nil && !reflect.DeepEqual(eager.lines, ref) {
			t.Fatalf("eager scan rows diverge from forEachRow:\n got %q\nwant %q", eager.lines, ref)
		}

		sha := "x"
		if len(ref) > 0 {
			sha = ref[len(ref)/2][:strings.IndexByte(ref[len(ref)/2], '|')]
		}
		var lazy linesPartial
		_, lazyErr := scanColPushdown(payload, compileQuery(Query{SHAs: []string{sha}, Cols: ColAll}), "m", &lazy)
		if lazyErr == nil && refErr == nil {
			var want []string
			for _, l := range ref {
				if strings.HasPrefix(l, sha+"|") {
					want = append(want, l)
				}
			}
			if !reflect.DeepEqual(lazy.lines, want) {
				t.Fatalf("lazy SHA scan rows diverge from forEachRow:\n got %q\nwant %q", lazy.lines, want)
			}
		}
	})
}

// FuzzAnalyzePayloadBytes feeds arbitrary payloads through the member
// walker's per-member core: an error or a summary, never a panic, and
// an accepted payload is a version this build reads.
func FuzzAnalyzePayloadBytes(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte(colMagic + "\x03"))
	// A header claiming 2^63 rows once decoded to a negative row count
	// and was accepted.
	f.Add([]byte(colMagic + "\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x01\x01\x00"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		sum, err := analyzePayload(payload, formatMax)
		if err != nil {
			return
		}
		if sum.ver < FormatV1 || sum.ver > formatMax {
			t.Fatalf("accepted a v%d payload", sum.ver)
		}
		if sum.rows < 0 || sum.raw < 0 {
			t.Fatalf("accepted %d rows, %d raw bytes", sum.rows, sum.raw)
		}
	})
}

// FuzzSamplesSnapshotBytes feeds arbitrary bytes to both decoders of
// samples.jsonl.gz. Open's member-wise loader never fails, and loads
// exactly the metas of the stream's clean prefix — on the bytes alone
// and behind a real snapshot, whose members that prefix must cover.
// ApplySamplesSnapshot rejects anything that does not decode in full,
// leaving the sample index and the file untouched; what it accepts it
// persists byte for byte and applies exactly as the multistream
// decoder of earlier builds reads it.
func FuzzSamplesSnapshotBytes(f *testing.F) {
	dir := f.TempDir()
	s, lens, _ := samplesCampaign(f, dir, WithMetrics(obs.NewRegistry()))
	deltas := readSamplesFile(f, dir)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	compacted := readSamplesFile(f, dir)
	f.Add(compacted)
	f.Add(deltas)
	f.Add(deltas[:(lens[1]+lens[2])/2]) // last delta torn
	f.Add(append(append([]byte(nil), compacted...), "\x1f\x8b\x08garbage"...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, append(append([]byte(nil), compacted...), data...)} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, samplesFile), file, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, WithMetrics(obs.NewRegistry()))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			log, _ := readSamplesLog(bytes.NewReader(file), nil)
			want := map[string]metaRow{}
			if log.members > 0 {
				metas, prefix, err := decodeSamplesSnapshot(file[:log.clean])
				if err != nil || prefix != log {
					t.Fatalf("clean prefix of %d bytes: %v, log %+v, want %+v", log.clean, err, prefix, log)
				}
				for h, m := range metas {
					want[h] = metaFrom(m)
				}
			}
			if got := storeMetas(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("Open loaded %d metas, clean prefix holds %d", len(got), len(want))
			}
			if len(file) > len(data) && log.clean < int64(len(compacted)) {
				t.Fatalf("garbled tail cut into the snapshot: clean %d < %d", log.clean, len(compacted))
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, samplesFile), compacted, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, WithMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		before := storeMetas(s)
		log, lerr := readSamplesLog(bytes.NewReader(data), nil)
		err = s.ApplySamplesSnapshot(data)
		if lerr != nil || log.members == 0 {
			if err == nil {
				t.Fatal("ApplySamplesSnapshot accepted bytes that do not decode in full")
			}
			if !reflect.DeepEqual(storeMetas(s), before) || !bytes.Equal(readSamplesFile(t, dir), compacted) {
				t.Fatal("rejected snapshot changed the store")
			}
			return
		}
		if err != nil {
			t.Fatalf("ApplySamplesSnapshot rejected a decodable snapshot: %v", err)
		}
		want, err := multistreamMetas(data)
		if err != nil {
			t.Fatalf("multistream decoder rejects an accepted snapshot: %v", err)
		}
		if got := storeMetas(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("applied %d metas, multistream decode holds %d", len(got), len(want))
		}
		if !bytes.Equal(readSamplesFile(t, dir), data) || s.samplesLen != int64(len(data)) || s.samplesDelta != log.delta {
			t.Fatalf("applied file or log position differs: len %d/%d, delta %d/%d", s.samplesLen, len(data), s.samplesDelta, log.delta)
		}
	})
}

// Sample metadata persistence: samples.jsonl.gz as a log plus
// checkpoint.
//
// The file is a multi-member gzip stream of {"m":metaRow} lines. Its
// first member is a snapshot: every sample's metadata, sorted by hash.
// Each Sync after that appends one delta member holding only the
// samples whose metadata changed since the previous write, again
// sorted by hash. Decoding member by member, a later row for a hash
// overrides an earlier one, so the whole stream (which plain zcat
// also reads) decodes to the live metadata. Compaction rewrites the
// file as a single snapshot member, byte-identical to what
// WriteSamplesSnapshot encodes; Close always compacts, so a closed
// store's file depends only on its contents, not on its Sync history.
//
// Crash safety: an append is written at the file's clean length, so a
// crash mid-append leaves a torn tail behind the last completed Sync.
// Open drops it (readSamplesLog stops at the first member that does
// not decode), the next append truncates it, RepairDir cuts it off,
// and a compaction replaces the file by temp file and rename.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// samplesFile names the sample-metadata file in a store directory.
const samplesFile = "samples.jsonl.gz"

// samplesLog describes the clean prefix of a samples.jsonl.gz stream.
type samplesLog struct {
	members int
	// clean is the byte length of the whole, decodable members.
	clean int64
	// delta counts the rows in the members after the first: the delta
	// rows written since the file was last compacted.
	delta int
}

// readSamplesLog decodes a samples.jsonl.gz stream member by member,
// handing each row to apply (which may be nil) as it decodes. It stops
// at the first member that is torn or does not decode and returns why;
// a stream that ends on a member boundary returns a nil error. Either
// way the log describes the prefix before that member — but apply has
// also seen the rows the failed member decoded before it failed, so a
// caller that must hold only the clean prefix discards what it built
// or re-reads the first log.clean bytes.
func readSamplesLog(r io.Reader, apply func(report.SampleMeta)) (samplesLog, error) {
	var log samplesLog
	cr := &countingByteReader{r: bufio.NewReaderSize(r, 64<<10)}
	zr, err := bufpool.GetGzipReader(cr)
	if errors.Is(err, io.EOF) {
		return log, nil // empty stream: no members
	}
	if err != nil {
		return log, err
	}
	defer bufpool.PutGzipReader(zr)
	for {
		zr.Multistream(false)
		rows := 0
		dec := json.NewDecoder(zr)
		for {
			var m struct {
				Meta metaRow `json:"m"`
			}
			if err := dec.Decode(&m); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return log, err
			}
			if m.Meta.SHA == "" {
				return log, errors.New("metadata row without a sample hash")
			}
			if apply != nil {
				apply(m.Meta.toMeta())
			}
			rows++
		}
		if log.members > 0 {
			log.delta += rows
		}
		log.members++
		log.clean = cr.n
		if err := zr.Reset(cr); errors.Is(err, io.EOF) {
			return log, nil
		} else if err != nil {
			return log, err
		}
	}
}

// loadSamples reads samples.jsonl.gz into the sample index at Open. A
// torn or undecodable tail (an append interrupted mid-Sync) is
// dropped, leaving the metas of the last completed Sync; the next
// append truncates it.
func (s *Store) loadSamples() error {
	f, err := os.Open(filepath.Join(s.dir, samplesFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	apply := func(m report.SampleMeta) { s.shardFor(m.SHA256).samples[m.SHA256] = m }
	log, err := readSamplesLog(f, apply)
	if err != nil {
		// The failed member's rows were applied before it failed:
		// rebuild the index from the clean prefix alone.
		for i := range s.shards {
			s.shards[i].samples = make(map[string]report.SampleMeta)
		}
		if _, err := readSamplesLog(io.NewSectionReader(f, 0, log.clean), apply); err != nil {
			return fmt.Errorf("store: %s: %w", samplesFile, err)
		}
	}
	s.samplesLen, s.samplesDelta = log.clean, log.delta
	return nil
}

// encodeSamplesMember writes metas, sorted by hash, as one gzip member
// of {"m":metaRow} lines: the unit samples.jsonl.gz is built from.
// Equal metas always encode to equal bytes.
func encodeSamplesMember(w io.Writer, metas []report.SampleMeta) error {
	gz := bufpool.GetGzipWriter(w)
	defer bufpool.PutGzipWriter(gz)
	enc := json.NewEncoder(gz)
	for i := range metas {
		row := struct {
			Meta metaRow `json:"m"`
		}{Meta: metaFrom(metas[i])}
		if err := enc.Encode(row); err != nil {
			gz.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func sortMetas(metas []report.SampleMeta) {
	slices.SortFunc(metas, func(a, b report.SampleMeta) int { return strings.Compare(a.SHA256, b.SHA256) })
}

// WriteSamplesSnapshot serializes the live sample-metadata index to w
// with exactly the bytes Close writes to samples.jsonl.gz: one member,
// sorted by hash, deterministic gzip.
func (s *Store) WriteSamplesSnapshot(w io.Writer) error {
	_, err := s.writeSamplesSnapshot(w)
	return err
}

// writeSamplesSnapshot is WriteSamplesSnapshot, also returning the
// number of rows written.
func (s *Store) writeSamplesSnapshot(w io.Writer) (int, error) {
	var metas []report.SampleMeta
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, m := range sh.samples {
			metas = append(metas, m)
		}
		sh.mu.Unlock()
	}
	sortMetas(metas)
	return len(metas), encodeSamplesMember(w, metas)
}

// syncSamples persists the sample metadata that changed since it was
// last written. Normally the dirty metas are appended as one delta
// member at the file's clean length. The file is compacted instead —
// rewritten as the full snapshot via temp file and rename — when full
// is set (Close), when it holds nothing decodable yet, or when the
// delta rows since the last compaction would exceed the live sample
// count. So every delta row is written once and pays for at most one
// row of a later compaction: a campaign's Syncs write O(Puts) rows in
// total, where rewriting the snapshot at every Sync would write
// O(Syncs × samples).
func (s *Store) syncSamples(full bool) error {
	s.samplesMu.Lock()
	defer s.samplesMu.Unlock()
	dirty, live := s.dirtyMetas(true)
	var err error
	switch {
	case !full && s.samplesLen > 0 && len(dirty) == 0:
		return nil
	case full || s.samplesLen == 0 || s.samplesDelta+len(dirty) > live:
		err = s.compactSamples()
	default:
		err = s.appendSamples(dirty)
	}
	if err != nil {
		// Nothing durable changed: the next Sync retries these.
		s.markDirty(dirty)
	}
	return err
}

// compactSamples rewrites samples.jsonl.gz as the full snapshot.
// samplesMu must be held.
func (s *Store) compactSamples() error {
	var (
		rows int
		size int64
	)
	err := writeFileAtomic(filepath.Join(s.dir, samplesFile), func(w io.Writer) error {
		cw := &countingWriter{w: w}
		var err error
		rows, err = s.writeSamplesSnapshot(cw)
		size = cw.n
		return err
	})
	if err != nil {
		return err
	}
	s.samplesLen, s.samplesDelta = size, 0
	s.m.samplesRowsFull.Add(int64(rows))
	return nil
}

// appendSamples writes metas as one delta member at the file's clean
// length, truncating a torn tail left by an interrupted append first.
// samplesMu must be held.
func (s *Store) appendSamples(metas []report.SampleMeta) error {
	var member bytes.Buffer
	if err := encodeSamplesMember(&member, metas); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, samplesFile), os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = f.Truncate(s.samplesLen)
	if err == nil {
		_, err = f.WriteAt(member.Bytes(), s.samplesLen)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.samplesLen += int64(member.Len())
	s.samplesDelta += len(metas)
	s.m.samplesRowsDiff.Add(int64(len(metas)))
	return nil
}

// dirtyMetas returns the current metas of every dirty sample, sorted
// by hash, and the live sample count; take also clears the dirty sets.
func (s *Store) dirtyMetas(take bool) ([]report.SampleMeta, int) {
	var out []report.SampleMeta
	live := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h := range sh.dirty {
			out = append(out, sh.samples[h])
		}
		if take && len(sh.dirty) > 0 {
			sh.dirty = make(map[string]struct{})
		}
		live += len(sh.samples)
		sh.mu.Unlock()
	}
	sortMetas(out)
	return out, live
}

// markDirty re-marks samples whose metadata write failed.
func (s *Store) markDirty(metas []report.SampleMeta) {
	for _, m := range metas {
		sh := s.shardFor(m.SHA256)
		sh.mu.Lock()
		sh.dirty[m.SHA256] = struct{}{}
		sh.mu.Unlock()
	}
}

// SamplesSnapshot returns the bytes a replica should hold as
// samples.jsonl.gz: the durable file's clean prefix plus, when
// samples changed since the last Sync (or the file holds nothing
// yet), one member of their metas — the member the next appending
// Sync writes. Unchanged metas are never re-encoded, so the leader's
// per-manifest cost is O(file bytes + changed samples).
func (s *Store) SamplesSnapshot() ([]byte, error) {
	s.samplesMu.Lock()
	defer s.samplesMu.Unlock()
	var buf bytes.Buffer
	if s.samplesLen > 0 {
		f, err := os.Open(filepath.Join(s.dir, samplesFile))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		buf.Grow(int(s.samplesLen))
		_, err = io.CopyN(&buf, f, s.samplesLen)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", samplesFile, err)
		}
	}
	if dirty, _ := s.dirtyMetas(false); len(dirty) > 0 || s.samplesLen == 0 {
		if err := encodeSamplesMember(&buf, dirty); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeSamplesSnapshot parses samples.jsonl.gz bytes in full: one or
// more members, every one decodable, nothing trailing. It returns the
// metas by hash (a later row overriding an earlier one) and the log
// shape.
func decodeSamplesSnapshot(data []byte) (map[string]report.SampleMeta, samplesLog, error) {
	metas := make(map[string]report.SampleMeta)
	log, err := readSamplesLog(bytes.NewReader(data), func(m report.SampleMeta) { metas[m.SHA256] = m })
	if err == nil && log.members == 0 {
		err = errors.New("no gzip member")
	}
	if err != nil {
		return nil, log, fmt.Errorf("store: samples snapshot: %w", err)
	}
	return metas, log, nil
}

// ApplySamplesSnapshot replaces the replica's sample-metadata index
// with a snapshot fetched from the leader (SamplesSnapshot bytes) and
// persists the exact bytes atomically as samples.jsonl.gz, adopting
// their delta-row count so the replica's next compaction falls where
// the leader's would. The snapshot is fully decoded before anything
// is applied: bytes that do not decode leave the store untouched.
func (s *Store) ApplySamplesSnapshot(data []byte) error {
	metas, log, err := decodeSamplesSnapshot(data)
	if err != nil {
		return err
	}
	var next [indexShards]map[string]report.SampleMeta
	for i := range next {
		next[i] = make(map[string]report.SampleMeta)
	}
	for h, m := range metas {
		next[fnv32a(h)&(indexShards-1)][h] = m
	}
	s.samplesMu.Lock()
	defer s.samplesMu.Unlock()
	if err := atomicWriteFile(filepath.Join(s.dir, samplesFile), data); err != nil {
		return err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.samples = next[i]
		sh.dirty = make(map[string]struct{})
		sh.mu.Unlock()
	}
	s.samplesLen, s.samplesDelta = log.clean, log.delta
	return nil
}

// repairSamples truncates dir's samples.jsonl.gz to its decodable
// prefix and returns the number of bytes dropped.
func repairSamples(dir string) (int64, error) {
	path := filepath.Join(dir, samplesFile)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	log, _ := readSamplesLog(bytes.NewReader(b), nil)
	if log.clean == int64(len(b)) {
		return 0, nil
	}
	if err := os.Truncate(path, log.clean); err != nil {
		return 0, fmt.Errorf("store: repair %s: %w", samplesFile, err)
	}
	return int64(len(b)) - log.clean, nil
}

// writeFileAtomic writes path through a temp file renamed into place,
// so readers never observe a torn file. The temp file is removed on
// every failure: write, close, or rename.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// atomicWriteFile is writeFileAtomic for bytes already in memory.
func atomicWriteFile(path string, data []byte) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	})
}

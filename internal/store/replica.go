// Replication hooks: the store as a replication log.
//
// Partitions are append-only sequences of independently-readable gzip
// members ("blocks"), committed strictly in order and byte-identical
// across worker counts — which makes the block the natural unit of
// replication. This file exports the two halves internal/sync builds
// on:
//
//   - Leader side: ReplState (per-month committed block positions),
//     BlocksSince (block metadata after a cursor), ReadBlock (the
//     committed compressed bytes of one block), and the state files:
//     SamplesSnapshot (samples.go: the durable sample-metadata log
//     plus a member for changes not yet synced) and StatsJSON (the
//     live accounting, with exactly the bytes Close writes).
//   - Follower side: ApplyBlocks (verify-then-append replicated
//     blocks, maintaining the block index, sample membership, and
//     accounting), ApplySamplesSnapshot / ApplyStatsSnapshot (state
//     files, decoded in full, then persisted atomically and applied
//     to memory), and RepairDir (crash recovery: truncate torn
//     partition and samples.jsonl.gz tails and rebuild sidecars so a
//     restarted follower resumes from its last durable block
//     boundary).
//
// The verify-then-apply invariant: ApplyBlocks never trusts wire
// metadata. Every block's payload is decompressed and re-analyzed
// (rows decoded for v1, the sha dictionary parsed for v2) and must
// agree with the claimed row count, raw bytes, format version, and
// append offset before a single byte lands in the partition — so a
// follower's sidecar postings are derived from its own bytes, which
// is what makes leader and follower sidecars byte-identical.
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
	"sort"
	"strings"

	"vtdynamics/internal/bufpool"
)

// ErrNotIndexed is returned by the replication hooks for months the
// store holds no partition (and so no block index) for.
var ErrNotIndexed = errors.New("store: no block index for month")

// ErrReplMismatch is returned by ApplyBlocks when a replicated block
// disagrees with the replica's committed state or with its own
// payload — wrong append offset, wrong sequence number, or wire
// metadata (rows, raw bytes, version) that the decompressed payload
// contradicts. The offending block and everything after it are not
// applied.
var ErrReplMismatch = errors.New("store: replicated block mismatch")

// ErrUnknownBlock is returned by ReadBlock and BlocksSince for block
// sequence numbers the month does not (yet) have.
var ErrUnknownBlock = errors.New("store: unknown block")

// MonthState is one month's committed replication position: how many
// blocks its partition holds and how many bytes they cover.
type MonthState struct {
	Blocks   int
	FileSize int64
}

// ReplBlock describes one committed partition block for replication.
type ReplBlock struct {
	// Month is the partition key (YYYY-MM).
	Month string
	// Seq is the block's index within its month, starting at 0.
	Seq int
	// Offset and Len locate the compressed member in the partition.
	Offset int64
	Len    int64
	// Rows and Raw are the member's row count and JSONL-equivalent
	// uncompressed byte total (the sidecar accounting).
	Rows int
	Raw  int64
	// Ver is the member payload's format version, normalized: v1 is
	// FormatV1, never the sidecar's legacy 0.
	Ver int
}

// ValidMonthKey reports whether month is a well-formed partition key
// (YYYY-MM). Replication decodes months off the wire and joins them
// into file paths, so anything else is rejected before it can name a
// file.
func ValidMonthKey(month string) bool {
	if len(month) != 7 || month[4] != '-' {
		return false
	}
	for i := 0; i < len(month); i++ {
		if i == 4 {
			continue
		}
		if month[i] < '0' || month[i] > '9' {
			return false
		}
	}
	return true
}

// state returns the index's committed block count and covered bytes.
func (ix *partIndex) state() (int, int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.blocks), ix.fileSize
}

// ReplState returns the committed replication position of every
// month. Blocks recorded here are fully on disk: the index is
// only appended to after a block's bytes are written.
func (s *Store) ReplState() map[string]MonthState {
	s.imu.Lock()
	defer s.imu.Unlock()
	out := make(map[string]MonthState, len(s.indexes))
	for month, ix := range s.indexes {
		n, size := ix.state()
		out[month] = MonthState{Blocks: n, FileSize: size}
	}
	return out
}

// BlocksSince returns up to maxBlocks committed blocks of month
// starting at sequence number seq, additionally capped at maxBytes of
// compressed payload (always returning at least one block when any is
// due). maxBlocks/maxBytes <= 0 mean unlimited. A month that has no
// partition returns ErrNotIndexed; a seq past the committed count returns
// ErrUnknownBlock (seq == count returns an empty slice — the caller
// is caught up).
func (s *Store) BlocksSince(month string, seq, maxBlocks int, maxBytes int64) ([]ReplBlock, error) {
	if !ValidMonthKey(month) {
		return nil, fmt.Errorf("store: bad month key %q", month)
	}
	ix := s.index(month)
	if ix == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotIndexed, month)
	}
	blocks := ix.snapshotBlocks()
	if seq < 0 || seq > len(blocks) {
		return nil, fmt.Errorf("%w: %s seq %d (have %d)", ErrUnknownBlock, month, seq, len(blocks))
	}
	var (
		out   []ReplBlock
		total int64
	)
	for i := seq; i < len(blocks); i++ {
		bm := blocks[i]
		if maxBlocks > 0 && len(out) >= maxBlocks {
			break
		}
		if maxBytes > 0 && len(out) > 0 && total+bm.Len > maxBytes {
			break
		}
		out = append(out, ReplBlock{
			Month:  month,
			Seq:    i,
			Offset: bm.Offset,
			Len:    bm.Len,
			Rows:   bm.Rows,
			Raw:    bm.Raw,
			Ver:    blockVer(bm),
		})
		total += bm.Len
	}
	return out, nil
}

// ReadBlock returns the committed compressed bytes of one block,
// re-validating the reference against the current index first.
func (s *Store) ReadBlock(ref ReplBlock) ([]byte, error) {
	if !ValidMonthKey(ref.Month) {
		return nil, fmt.Errorf("store: bad month key %q", ref.Month)
	}
	ix := s.index(ref.Month)
	if ix == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotIndexed, ref.Month)
	}
	blocks := ix.snapshotBlocks()
	if ref.Seq < 0 || ref.Seq >= len(blocks) {
		return nil, fmt.Errorf("%w: %s seq %d (have %d)", ErrUnknownBlock, ref.Month, ref.Seq, len(blocks))
	}
	bm := blocks[ref.Seq]
	if bm.Offset != ref.Offset || bm.Len != ref.Len {
		return nil, fmt.Errorf("%w: %s seq %d is @%d+%d, ref says @%d+%d",
			ErrUnknownBlock, ref.Month, ref.Seq, bm.Offset, bm.Len, ref.Offset, ref.Len)
	}
	f, err := os.Open(s.partPath(ref.Month))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	data := make([]byte, bm.Len)
	if _, err := io.ReadFull(io.NewSectionReader(f, bm.Offset, bm.Len), data); err != nil {
		return nil, fmt.Errorf("store: %s: block @%d: %w", ref.Month, bm.Offset, err)
	}
	return data, nil
}

// payloadSummary is what analyzePayload derives from a decompressed
// block payload — the ground truth ApplyBlocks checks wire metadata
// against.
type payloadSummary struct {
	rows int
	raw  int64
	ver  int
	shas map[string]int
	// zone is the payload's recomputed zone map: followers never trust
	// wire metadata, and the zone isn't even on the wire — recomputing
	// here is what keeps leader and follower sidecars byte-identical.
	zone blockZone
}

// analyzePayload decodes a block payload far enough to know its
// version, row count, JSONL-equivalent raw bytes, per-sample row
// counts and zone map — the per-member core of walkPartition, and
// what ApplyBlocks and Verify check block entries against.
func analyzePayload(payload []byte, maxVer int) (payloadSummary, error) {
	sum := payloadSummary{shas: make(map[string]int)}
	sum.ver = sniffVersion(payload)
	switch {
	case sum.ver == FormatV1:
		sc := bufio.NewScanner(bytes.NewReader(payload))
		sbuf := bufpool.GetScanBuf()
		defer bufpool.PutScanBuf(sbuf)
		sc.Buffer(sbuf, 16<<20)
		var row scanRow
		var acc zoneAcc
		for sc.Scan() {
			if err := decodeScanRow(sc.Bytes(), &row); err != nil {
				return sum, err
			}
			sum.rows++
			sum.raw += int64(len(sc.Bytes()))
			sum.shas[row.SHA]++
			acc.row(&row)
		}
		if err := sc.Err(); err != nil {
			return sum, err
		}
		sum.zone = acc.z
	case sum.ver <= maxVer:
		cb, err := parseColumnarBlock(payload)
		if err != nil {
			return sum, err
		}
		sum.rows, sum.raw = cb.rows, cb.raw
		for _, sha := range cb.sha {
			sum.shas[sha]++
		}
		if sum.zone, err = zoneOfColBlock(cb); err != nil {
			return sum, err
		}
	default:
		return sum, &FormatError{Version: sum.ver, Max: maxVer}
	}
	return sum, nil
}

// meta is the block entry for a member at [off, off+n) whose payload
// sum describes.
func (sum payloadSummary) meta(off, n int64) blockMeta {
	bm := blockMeta{Offset: off, Len: n, Rows: sum.rows, Raw: sum.raw}
	if sum.ver != FormatV1 {
		bm.Ver = sum.ver
	}
	bm.setZone(sum.zone)
	return bm
}

// ApplyBlocks verifies and appends replicated blocks to month's
// partition, in order. It is the follower half of the sync protocol:
// each block's data must be exactly one gzip member whose decompressed
// payload agrees with the block's claimed rows, raw bytes, and format
// version, and whose sequence/offset continue the replica's committed
// state exactly — otherwise ErrReplMismatch (or a *FormatError for
// payloads from a future format) and nothing from the offending block
// on is applied; blocks before it stay applied, consistently. On
// success the month's block index, the sample membership index, the
// read cache, and the partition accounting are updated, so Gets
// served from this store see the new rows immediately; call Sync
// afterwards to persist the grown sidecar.
//
// ApplyBlocks is for replica stores: it must not race local writes,
// and it refuses months that currently have an open partition writer.
func (s *Store) ApplyBlocks(month string, blocks []ReplBlock, data [][]byte) error {
	if len(blocks) == 0 {
		return nil
	}
	if len(blocks) != len(data) {
		return fmt.Errorf("store: ApplyBlocks: %d refs, %d payloads", len(blocks), len(data))
	}
	if !ValidMonthKey(month) {
		return fmt.Errorf("store: bad month key %q", month)
	}
	s.wmu.Lock()
	_, hasWriter := s.writers[month]
	s.wmu.Unlock()
	if hasWriter {
		return fmt.Errorf("store: ApplyBlocks %s: partition has an open writer (replica stores must not be written locally)", month)
	}
	path := s.partPath(month)
	ix := s.index(month)
	if ix == nil {
		ix = newPartIndex() // a month this replica has never seen
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	nBlocks, size := ix.state()
	if fi.Size() != size {
		return fmt.Errorf("%w: %s partition is %d bytes, index covers %d (repair the replica)",
			ErrReplMismatch, month, fi.Size(), size)
	}
	s.setIndex(month, ix)
	for i, b := range blocks {
		if b.Month != month {
			return fmt.Errorf("%w: block %d is for %q, batch is for %s", ErrReplMismatch, i, b.Month, month)
		}
		if b.Seq != nBlocks || b.Offset != size {
			return fmt.Errorf("%w: %s got block seq %d @%d, replica is at seq %d @%d",
				ErrReplMismatch, month, b.Seq, b.Offset, nBlocks, size)
		}
		if b.Len != int64(len(data[i])) {
			return fmt.Errorf("%w: %s seq %d: %d data bytes, ref says %d",
				ErrReplMismatch, month, b.Seq, len(data[i]), b.Len)
		}
		sum, err := s.verifyMemberPayload(data[i], b)
		if err != nil {
			return err
		}
		if _, err := f.Write(data[i]); err != nil {
			return fmt.Errorf("store: %s seq %d: %w", month, b.Seq, err)
		}
		ix.appendBlock(sum.meta(b.Offset, b.Len), sum.shas)
		for sha := range sum.shas {
			sh := s.shardFor(sha)
			sh.mu.Lock()
			set, ok := sh.months[sha]
			if !ok {
				set = make(map[string]bool)
				sh.months[sha] = set
			}
			set[month] = true
			sh.mu.Unlock()
			s.cache.invalidate(sha)
		}
		s.smu.Lock()
		st, ok := s.stats[month]
		if !ok {
			st = &PartitionStats{}
			s.stats[month] = st
		}
		st.Reports += sum.rows
		st.RawBytes += sum.raw
		st.StoredBytes += b.Len
		s.smu.Unlock()
		nBlocks++
		size += b.Len
	}
	return nil
}

// verifyMemberPayload decompresses one replicated member and checks
// the payload against the wire metadata — the verify half of
// verify-then-apply.
func (s *Store) verifyMemberPayload(data []byte, b ReplBlock) (payloadSummary, error) {
	br := bufpool.GetBufioReader(bytes.NewReader(data))
	defer bufpool.PutBufioReader(br)
	zr, err := bufpool.GetGzipReader(br)
	if err != nil {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: not a gzip member: %v", ErrReplMismatch, b.Month, b.Seq, err)
	}
	defer bufpool.PutGzipReader(zr)
	defer zr.Close()
	zr.Multistream(false)
	payload, err := readPooled(zr)
	if err != nil {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: corrupt member: %v", ErrReplMismatch, b.Month, b.Seq, err)
	}
	defer bufpool.PutBlockBuf(payload)
	// Exactly one member: trailing bytes would smuggle unaccounted rows
	// past the index.
	if err := zr.Reset(br); err == nil {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: trailing data after gzip member", ErrReplMismatch, b.Month, b.Seq)
	} else if !errors.Is(err, io.EOF) {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: trailing garbage after gzip member", ErrReplMismatch, b.Month, b.Seq)
	}
	sum, err := analyzePayload(payload, s.maxFormat)
	if err != nil {
		var fe *FormatError
		if errors.As(err, &fe) {
			return payloadSummary{}, &FormatError{Path: s.partPath(b.Month), Version: fe.Version, Max: fe.Max}
		}
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: payload: %v", ErrReplMismatch, b.Month, b.Seq, err)
	}
	if sum.ver != b.Ver || sum.rows != b.Rows || sum.raw != b.Raw {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: payload is v%d/%d rows/%d raw, ref says v%d/%d/%d",
			ErrReplMismatch, b.Month, b.Seq, sum.ver, sum.rows, sum.raw, b.Ver, b.Rows, b.Raw)
	}
	return sum, nil
}

// StatsJSON serializes the live per-month accounting with exactly the
// bytes Close writes to stats.json.
func (s *Store) StatsJSON() ([]byte, error) {
	s.smu.Lock()
	snapshot := make(map[string]PartitionStats, len(s.stats))
	for month, st := range s.stats {
		snapshot[month] = *st
	}
	s.smu.Unlock()
	b, err := json.Marshal(snapshot)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// ApplyStatsSnapshot persists the leader's stats snapshot atomically
// as stats.json and then replaces the replica's per-month accounting
// with it; bytes that do not parse, or a failed write, leave the
// accounting untouched.
func (s *Store) ApplyStatsSnapshot(data []byte) error {
	var saved map[string]PartitionStats
	if err := json.Unmarshal(data, &saved); err != nil {
		return fmt.Errorf("store: stats snapshot: %w", err)
	}
	if err := atomicWriteFile(filepath.Join(s.dir, "stats.json"), data); err != nil {
		return err
	}
	s.smu.Lock()
	s.stats = make(map[string]*PartitionStats, len(saved))
	for month, st := range saved {
		cp := st
		s.stats[month] = &cp
	}
	s.smu.Unlock()
	return nil
}

// RepairStats summarizes one RepairDir pass.
type RepairStats struct {
	// Repaired lists months whose sidecar was rebuilt, sorted.
	Repaired []string
	// TruncatedBytes counts torn tail bytes dropped from partitions
	// and samples.jsonl.gz.
	TruncatedBytes int64
}

// RepairDir restores a store directory to a durable, indexed state
// after a crash: every month whose sidecar does not cleanly cover its
// partition is re-walked member by member (walkPartition), the
// partition is truncated at the end of its clean prefix (dropping a
// torn tail from an interrupted append), and a fresh sidecar is
// written; samples.jsonl.gz is likewise truncated to its decodable
// members, dropping a delta torn by a crash mid-Sync. Run it before
// Open on a
// replica so the follower's cursor — derived from the sidecars —
// points at its last durable block boundary; everything truncated is
// simply re-pulled from the leader. Months in a format newer than
// this build are an error, never a truncation.
func RepairDir(dir string) (RepairStats, error) {
	var rs RepairStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return rs, nil
		}
		return rs, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "scans-") || !strings.HasSuffix(name, ".jsonl.gz") {
			continue
		}
		month := strings.TrimSuffix(strings.TrimPrefix(name, "scans-"), ".jsonl.gz")
		path := filepath.Join(dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			return rs, fmt.Errorf("store: %w", err)
		}
		if _, ok, err := loadSidecar(dir, month, fi.Size(), formatMax); err != nil {
			return rs, err
		} else if ok {
			continue // sidecar cleanly covers the partition
		}
		ix, goodEnd, err := walkPartition(path, formatMax)
		if ix == nil {
			return rs, err
		}
		if goodEnd < fi.Size() {
			if err := os.Truncate(path, goodEnd); err != nil {
				return rs, fmt.Errorf("store: repair %s: %w", month, err)
			}
			rs.TruncatedBytes += fi.Size() - goodEnd
		}
		ix.dirty = true
		if err := ix.writeSidecar(dir, month); err != nil {
			return rs, err
		}
		rs.Repaired = append(rs.Repaired, month)
	}
	sort.Strings(rs.Repaired)
	n, err := repairSamples(dir)
	rs.TruncatedBytes += n
	return rs, err
}

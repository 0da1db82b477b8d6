// Block index: the random-access read path.
//
// Each monthly partition is written as a sequence of independently
// closed gzip members ("blocks") of roughly blockSizeDefault
// uncompressed bytes. Concatenated gzip members are a valid gzip
// stream, so partition files stay readable by the streaming reader,
// by pre-index builds of this package, and by zcat. Alongside each
// partition the store persists a sidecar, scans-YYYY-MM.idx, holding
//
//   - the partition file size the index covers (staleness check),
//   - per-block (offset, compressed length, row count, raw bytes),
//   - a SHA→block-set posting list.
//
// Get seeks straight to the few blocks that hold its sample instead
// of gunzipping the whole month. For a month written before the
// sidecar existed, or whose sidecar does not match the file, Open
// builds the same index in memory by walking the gzip members
// (walkPartition); Reindex walks them too and persists the result.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"vtdynamics/internal/bufpool"
)

// blockSizeDefault is the target uncompressed size of one block. Big
// enough that gzip member overhead and per-block seek cost stay
// negligible, small enough that Get decodes only a sliver of a month.
const blockSizeDefault = 256 << 10

// blockMeta locates one gzip member inside a partition file.
type blockMeta struct {
	// Offset is the member's first byte in the partition file.
	Offset int64 `json:"o"`
	// Len is the member's compressed length in bytes.
	Len int64 `json:"l"`
	// Rows is the number of scan rows in the member.
	Rows int `json:"n"`
	// Raw is the sum of uncompressed row lengths (sans newlines) —
	// the same conservative accounting load() derives when scanning.
	// v2 blocks carry the identical figure in their payload header, so
	// accounting never depends on the block's format.
	Raw int64 `json:"r"`
	// Ver is the member payload's format version; 0 means v1, which
	// keeps the sidecar bytes of pure-v1 partitions identical to what
	// pre-versioning builds wrote (omitempty).
	Ver int `json:"v,omitempty"`

	// Zone map (sidecar v3, zonemap.go). Z == 1 marks the zone fields
	// as present; entries from pre-zone sidecars carry Z == 0 and are
	// never pruned on. All zone fields are omitempty so zero stats
	// (and legacy entries) stay compact.
	Z    int    `json:"z,omitempty"`
	TMin int64  `json:"t0,omitempty"`
	TMax int64  `json:"t1,omitempty"`
	Mal  int    `json:"m,omitempty"`
	FTB  uint64 `json:"fb,omitempty"`
	EngB uint64 `json:"eb,omitempty"`
	LabB uint64 `json:"lb,omitempty"`
}

// Sidecar schema versions. The block-index sidecar was unversioned
// before zone maps (implicitly v2, the PR-2 schema); v3 adds the
// per-block zone fields and an explicit "ver" marker.
const (
	sidecarVerLegacy = 2
	sidecarVerZones  = 3
)

// sidecarFile is the on-disk JSON schema of scans-YYYY-MM.idx.
type sidecarFile struct {
	// FileSize is the partition size the blocks cover; a mismatch with
	// the actual file marks the sidecar stale.
	FileSize int64 `json:"file_size"`
	// Ver is the sidecar schema version: absent (0) for legacy
	// pre-zone sidecars, sidecarVerZones for sidecars this build
	// writes. Pruning never keys off Ver — each block's Z flag governs
	// — so mixed sidecars (legacy blocks appended to by a zone-aware
	// writer) stay exact.
	Ver      int              `json:"ver,omitempty"`
	Blocks   []blockMeta      `json:"blocks"`
	Postings map[string][]int `json:"postings"`
}

// partIndex is the in-memory block index of one monthly partition.
// Writers append blocks under the partition writer's lock; readers
// snapshot under mu, so a Get never blocks behind gzip compression.
type partIndex struct {
	mu       sync.RWMutex
	fileSize int64
	blocks   []blockMeta
	postings map[string][]int
	dirty    bool // blocks appended since the sidecar was last written
	// persisted marks an index loaded from, or written to, its sidecar;
	// an index built in memory at Open has none on disk until written.
	persisted bool
}

func newPartIndex() *partIndex {
	return &partIndex{postings: make(map[string][]int)}
}

// appendBlock records one freshly cut gzip member and its samples.
func (ix *partIndex) appendBlock(bm blockMeta, shas map[string]int) {
	ix.mu.Lock()
	n := len(ix.blocks)
	ix.blocks = append(ix.blocks, bm)
	for sha := range shas {
		ix.postings[sha] = append(ix.postings[sha], n)
	}
	ix.fileSize = bm.Offset + bm.Len
	ix.dirty = true
	ix.mu.Unlock()
}

// blocksFor snapshots the blocks that hold sha, in file order.
func (ix *partIndex) blocksFor(sha string) []blockMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := ix.postings[sha]
	if len(ids) == 0 {
		return nil
	}
	out := make([]blockMeta, len(ids))
	for i, id := range ids {
		out[i] = ix.blocks[id]
	}
	return out
}

// totals sums rows and raw bytes across blocks (load's fast path).
func (ix *partIndex) totals() (rows int, raw int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, b := range ix.blocks {
		rows += b.Rows
		raw += b.Raw
	}
	return rows, raw
}

// sampleSHAs lists every sample with rows in the partition.
func (ix *partIndex) sampleSHAs() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.postings))
	for sha := range ix.postings {
		out = append(out, sha)
	}
	return out
}

// fullyZoned reports whether every block entry carries a zone map —
// i.e. the sidecar is effectively version 3 and nothing remains for
// ReindexWithStats to upgrade. Vacuously true for empty partitions.
func (ix *partIndex) fullyZoned() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, bm := range ix.blocks {
		if bm.Z == 0 {
			return false
		}
	}
	return true
}

// onDisk reports whether the month has a sidecar matching this index
// (as of its last write).
func (ix *partIndex) onDisk() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.persisted
}

// snapshotBlocks copies the block list, in file order.
func (ix *partIndex) snapshotBlocks() []blockMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]blockMeta(nil), ix.blocks...)
}

// snapshotPostings deep-copies the SHA→block-set posting list.
func (ix *partIndex) snapshotPostings() map[string][]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[string][]int, len(ix.postings))
	for sha, ids := range ix.postings {
		out[sha] = append([]int(nil), ids...)
	}
	return out
}

// sidecarPath names the index sidecar for a month.
func sidecarPath(dir, month string) string {
	return filepath.Join(dir, "scans-"+month+".idx")
}

// writeSidecar persists the index if it has grown since the last
// write. Postings are a map, which encoding/json serializes with
// sorted keys, so sidecar bytes are deterministic — the concurrency
// determinism harness hashes them along with the partitions.
func (ix *partIndex) writeSidecar(dir, month string) error {
	ix.mu.Lock()
	if !ix.dirty {
		ix.mu.Unlock()
		return nil
	}
	sf := sidecarFile{
		FileSize: ix.fileSize,
		Ver:      sidecarVerZones,
		Blocks:   append([]blockMeta(nil), ix.blocks...),
		Postings: make(map[string][]int, len(ix.postings)),
	}
	for sha, ids := range ix.postings {
		sf.Postings[sha] = append([]int(nil), ids...)
	}
	ix.dirty = false
	ix.persisted = true
	ix.mu.Unlock()
	b, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("store: index sidecar: %w", err)
	}
	if err := os.WriteFile(sidecarPath(dir, month), b, 0o644); err != nil {
		return fmt.Errorf("store: index sidecar: %w", err)
	}
	return nil
}

// loadSidecar reads a month's sidecar and validates it against the
// partition's current size. Any mismatch, unreadable file, or
// malformed JSON yields (nil, false, nil): the caller indexes the
// partition bytes exactly as if the sidecar never existed. A block
// tagged with a format version newer than maxVer is different — the
// data is intact but unreadable by this build, so the error is a
// *FormatError, never a silent re-walk that would then choke on the
// member bytes.
func loadSidecar(dir, month string, partitionSize int64, maxVer int) (*partIndex, bool, error) {
	b, err := os.ReadFile(sidecarPath(dir, month))
	if err != nil {
		return nil, false, nil
	}
	var sf sidecarFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, false, nil
	}
	// A sidecar schema from the future is treated like a missing
	// sidecar, not an error: the partition bytes are self-describing,
	// so indexing them stays correct (and a future *block* format
	// inside still fails loudly via the payload sniff).
	if sf.Ver > sidecarVerZones {
		return nil, false, nil
	}
	if sf.FileSize != partitionSize {
		return nil, false, nil
	}
	// Internal consistency: blocks must tile [0, FileSize) and every
	// posting must point at a real block.
	var off int64
	for _, bm := range sf.Blocks {
		if bm.Offset != off || bm.Len <= 0 {
			return nil, false, nil
		}
		off += bm.Len
		if v := blockVer(bm); v > maxVer {
			return nil, false, &FormatError{Path: sidecarPath(dir, month), Version: v, Max: maxVer}
		}
	}
	if off != sf.FileSize {
		return nil, false, nil
	}
	for _, ids := range sf.Postings {
		for _, id := range ids {
			if id < 0 || id >= len(sf.Blocks) {
				return nil, false, nil
			}
		}
	}
	ix := &partIndex{
		fileSize:  sf.FileSize,
		blocks:    sf.Blocks,
		postings:  sf.Postings,
		persisted: true,
	}
	if ix.postings == nil {
		ix.postings = make(map[string][]int)
	}
	return ix, true, nil
}

// countingByteReader counts bytes consumed from the underlying
// buffered reader. It implements io.ByteReader so flate never reads
// past a gzip member's end — which makes c.n an exact member
// boundary after each Multistream(false) member drains.
type countingByteReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// walkPartition rebuilds a partition's block index by walking its
// gzip members one at a time, each analyzed by analyzePayload — the
// walk behind Open (for months without a usable sidecar), Reindex and
// RepairDir. Block-written files recover their original block
// boundaries (and versions); pre-index files yield one block per
// historical flush. It returns the index of the clean prefix, the
// offset where that prefix ends, and the first member error: a torn or
// undecodable member stops the walk there. A nil index means nothing
// can be trusted: the file could not be opened, or holds a member in a
// format newer than maxVer (a *FormatError).
func walkPartition(path string, maxVer int) (*partIndex, int64, error) {
	ix := newPartIndex()
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ix, 0, nil
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	cr := &countingByteReader{r: bufio.NewReaderSize(f, 1<<20)}
	zr, err := gzip.NewReader(cr)
	if err != nil {
		if errors.Is(err, io.EOF) { // empty partition
			return ix, 0, nil
		}
		return ix, 0, fmt.Errorf("store: %s: %w", path, err)
	}
	defer zr.Close()
	var start int64
	for {
		zr.Multistream(false)
		payload, err := readPooled(zr)
		if err != nil {
			return ix, start, fmt.Errorf("store: %s: block @%d: %w", path, start, err)
		}
		sum, err := analyzePayload(payload, maxVer)
		bufpool.PutBlockBuf(payload)
		if err != nil {
			var fe *FormatError
			if errors.As(err, &fe) {
				return nil, 0, &FormatError{Path: path, Version: fe.Version, Max: fe.Max}
			}
			return ix, start, fmt.Errorf("store: %s: block @%d: %w", path, start, err)
		}
		end := cr.n
		if sum.rows > 0 || end > start {
			ix.appendBlock(sum.meta(start, end-start), sum.shas)
		}
		start = end
		if err := zr.Reset(cr); err != nil {
			if errors.Is(err, io.EOF) {
				return ix, start, nil
			}
			return ix, start, fmt.Errorf("store: %s: block @%d: %w", path, start, err)
		}
	}
}

// readBlockPayloadAt decompresses one member into a pooled block
// buffer (release with bufpool.PutBlockBuf). Columnar readers use it
// because their decoders want the whole payload in memory to slice
// into column segments.
func readBlockPayloadAt(f *os.File, path string, bm blockMeta) ([]byte, error) {
	sec := io.NewSectionReader(f, bm.Offset, bm.Len)
	br := bufpool.GetBufioReader(sec)
	defer bufpool.PutBufioReader(br)
	zr, err := bufpool.GetGzipReader(br)
	if err != nil {
		return nil, fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
	}
	defer bufpool.PutGzipReader(zr)
	defer zr.Close()
	buf, err := readPooled(zr)
	if err != nil {
		return nil, fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
	}
	return buf, nil
}

// readPooled reads r to EOF into a pooled block buffer (release with
// bufpool.PutBlockBuf).
func readPooled(r io.Reader) ([]byte, error) {
	buf := bufpool.GetBlockBuf()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return buf, nil
			}
			bufpool.PutBlockBuf(buf)
			return nil, err
		}
	}
}

// scanBlockLinesAt streams one block's raw lines through fn, drawing
// the buffered reader, gzip state, and scanner buffer from the shared
// pools. The line aliases the scanner's buffer and is only valid
// during the call. An fn error stops the scan and is returned
// verbatim (wrapped with the block's position).
func scanBlockLinesAt(f *os.File, path string, bm blockMeta, fn func(line []byte) error) error {
	sec := io.NewSectionReader(f, bm.Offset, bm.Len)
	br := bufpool.GetBufioReader(sec)
	defer bufpool.PutBufioReader(br)
	zr, err := bufpool.GetGzipReader(br)
	if err != nil {
		return fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
	}
	defer bufpool.PutGzipReader(zr)
	defer zr.Close()
	sc := bufio.NewScanner(zr)
	sbuf := bufpool.GetScanBuf()
	defer bufpool.PutScanBuf(sbuf)
	sc.Buffer(sbuf, 16<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
	}
	return nil
}

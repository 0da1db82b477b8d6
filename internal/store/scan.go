// Pushdown scan engine: zone-pruned, column-projected aggregation.
//
// Scan is the store's one block reader. Whole-store passes (StatsByType,
// Verify's row pass, IterAll, time-bounded vtquery reads, the
// experiments' store-backed dynamics sweeps) run it through Scan, and
// Get decodes each of its sample's blocks through the same job runner
// with a SHA-predicate query. Every month has a block index (Open builds
// one in memory for months without a usable sidecar), so the engine
// works strictly top-down, skipping work at three levels:
//
//  1. Block pruning. Before touching a partition, each block entry is
//     tested against the query: empty blocks, blocks whose posting
//     list lacks every requested sample, blocks whose zone time bounds
//     (or, for pre-zone entries, the month's natural bounds) miss the
//     time range, blocks whose file-type/engine/label fingerprints
//     cannot intersect the predicate sets, and blocks with zero
//     malicious rows under MaliciousOnly are all skipped without a
//     single byte of decompression. Fingerprint pruning is one-sided:
//     a false positive costs a scan, never a wrong answer.
//  2. Column projection. A scanned v2 block decodes only the column
//     segments the query's predicates and projection actually touch;
//     the rest are skipped whole (their lengths are in the payload),
//     and rows failing a predicate advance the remaining cursors
//     varint-wise without materializing anything.
//  3. Kernel aggregation. Matching rows are fed to a per-job Partial
//     as a reused RowView — no ScanReport, no per-row allocation —
//     and partials merge in deterministic job order (month ascending,
//     block sequence ascending), so results are independent of worker
//     count and scheduling.
//
// v1 blocks decode row by row through the same row-level filter, so
// mixed-format stores stay correct — pinned by
// FuzzScanPushdownDifferential, which compares Scan against a naive
// filter over independently decoded rows of random v1/v2/mixed stores.
//
// Accounting identity (checked by the metrics invariant suite): every
// block a Scan considers is either pruned (for exactly one reason) or
// scanned — store_blocks_pruned_total summed over reasons plus
// store_scan_blocks_scanned_total equals store_scan_blocks_total.
package store

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// ColSet selects the columns a Query projects into RowView. Predicate
// columns are decoded as needed regardless; projection only controls
// what the kernel sees.
type ColSet uint16

const (
	ColSHA ColSet = 1 << iota
	ColTime
	ColFT
	ColRank
	ColTot
	ColResults

	ColAll = ColSHA | ColTime | ColFT | ColRank | ColTot | ColResults
)

// Query describes one pushdown scan: row predicates (ANDed across
// fields, ORed within a set) plus a column projection.
type Query struct {
	// Since/Until bound the row's analysis timestamp, inclusive, in
	// unix seconds. Zero means unbounded on that side (rows with a
	// zero timestamp therefore match only time-unbounded-below
	// queries, which is exactly the "no analysis date" semantics the
	// row codec preserves).
	Since, Until int64
	// FileTypes/Engines/Labels keep rows whose file type is in the
	// set / that carry at least one result from an engine in the set /
	// at least one non-empty label in the set. Empty slices match all.
	FileTypes []string
	Engines   []string
	Labels    []string
	// SHAs restricts the scan to the given samples (empty = all).
	SHAs []string
	// MaliciousOnly keeps rows with at least one Malicious result.
	MaliciousOnly bool
	// Cols is the projection; unprojected RowView fields stay zero.
	Cols ColSet
	// Workers is the block-scan parallelism (<= 0 uses GOMAXPROCS).
	// The worker count never changes results, only wall time.
	Workers int
}

// ResView is one engine result as seen by a kernel. Eng and Lab are
// interned strings; the backing ResView slice is reused between rows.
type ResView struct {
	Eng string
	Lab string
	Sig int
	Ver int8
}

// RowView is the kernel-facing row: only the projected columns are
// populated, everything else keeps its zero value. The view and its
// Res slice are reused between rows — kernels must copy what they
// keep (the strings themselves are safe to retain; interned or
// dict-owned, they are immutable).
type RowView struct {
	Month string
	SHA   string
	At    int64
	FT    string
	Rank  int
	Tot   int
	Res   []ResView
}

// fill writes the view's columns into r, reusing r.Results' backing
// array — the one RowView → ScanReport conversion that Get, IterAll,
// Migrate and Verify share.
func (rv *RowView) fill(r *report.ScanReport) {
	*r = report.ScanReport{
		SHA256:       rv.SHA,
		FileType:     rv.FT,
		AnalysisDate: fromUnix(rv.At),
		AVRank:       rv.Rank,
		EnginesTotal: rv.Tot,
		Results:      r.Results[:0],
	}
	for i := range rv.Res {
		e := &rv.Res[i]
		r.Results = append(r.Results, report.EngineResult{
			Engine:           e.Eng,
			Verdict:          report.Verdict(e.Ver),
			SignatureVersion: e.Sig,
			Label:            e.Lab,
		})
	}
}

// report builds a fresh report from the view. Results is non-nil even
// when empty, matching rowToReport.
func (rv *RowView) report() *report.ScanReport {
	r := &report.ScanReport{Results: make([]report.EngineResult, 0, len(rv.Res))}
	rv.fill(r)
	return r
}

// Partial accumulates one job's (one block's) rows. Row is called
// from a single goroutine per partial; distinct partials run
// concurrently.
type Partial interface {
	Row(rv *RowView) error
}

// Agg is an aggregation kernel: it mints fresh partial states for the
// workers and folds them back in deterministic job order.
type Agg interface {
	NewPartial() Partial
	Merge(p Partial) error
}

// Pruning reasons, in the order they are tested (each pruned block is
// counted under exactly one).
const (
	PruneEmpty    = "empty"
	PruneSHA      = "sha"
	PruneTime     = "time"
	PruneFileType = "filetype"
	PruneEngine   = "engine"
	PruneLabel    = "label"
	PruneVerdict  = "verdict"
)

// pruneReasons lists every reason once, for stats/metric enumeration.
var pruneReasons = []string{
	PruneEmpty, PruneSHA, PruneTime, PruneFileType, PruneEngine, PruneLabel, PruneVerdict,
}

// ScanStats reports what one Scan call did — the observability half
// of the pushdown contract.
type ScanStats struct {
	// Blocks counts sidecar block entries considered; every one is
	// either in Pruned (under one reason) or in Scanned.
	Blocks  int
	Scanned int
	Pruned  map[string]int
	// Rows is the number of matching rows fed to the kernel.
	Rows int64
	// CompressedBytes is the gzip bytes actually read (and therefore
	// decompressed) — pruned blocks contribute nothing.
	CompressedBytes int64
	// ColumnsSkipped counts column segments of scanned v2 blocks the
	// query never touched.
	ColumnsSkipped int64
}

// PrunedTotal sums Pruned across reasons.
func (st ScanStats) PrunedTotal() int {
	n := 0
	for _, v := range st.Pruned {
		n += v
	}
	return n
}

// compiledQuery is a Query with its predicate sets resolved into
// lookup maps and zone fingerprint masks.
type compiledQuery struct {
	q                             Query
	shaSet, ftSet, engSet, labSet map[string]bool
	ftMask, engMask, labMask      uint64

	// Per-segment needs: a segment is touched iff a predicate or the
	// projection requires it.
	needSHA, needTime, needFT, needRank, needTot bool
	needNRes, needRes, needVerdict               bool
}

func toSet(vals []string) map[string]bool {
	if len(vals) == 0 {
		return nil
	}
	m := make(map[string]bool, len(vals))
	for _, v := range vals {
		m[v] = true
	}
	return m
}

func compileQuery(q Query) *compiledQuery {
	cq := &compiledQuery{
		q:      q,
		shaSet: toSet(q.SHAs),
		ftSet:  toSet(q.FileTypes),
		engSet: toSet(q.Engines),
		labSet: toSet(q.Labels),
	}
	cq.ftMask = zoneBits(q.FileTypes)
	cq.engMask = zoneBits(q.Engines)
	cq.labMask = zoneBits(q.Labels)

	proj := q.Cols
	cq.needSHA = proj&ColSHA != 0 || cq.shaSet != nil
	cq.needTime = proj&ColTime != 0 || q.Since != 0 || q.Until != 0
	cq.needFT = proj&ColFT != 0 || cq.ftSet != nil
	cq.needRank = proj&ColRank != 0
	cq.needTot = proj&ColTot != 0
	cq.needRes = proj&ColResults != 0 || cq.engSet != nil || cq.labSet != nil
	cq.needVerdict = proj&ColResults != 0 || q.MaliciousOnly
	cq.needNRes = cq.needRes || cq.needVerdict
	return cq
}

// touchedSegments counts how many of the 8 column segments a v2 block
// scan reads under this query.
func (cq *compiledQuery) touchedSegments() int {
	n := 0
	for _, need := range []bool{
		cq.needSHA, cq.needTime, cq.needFT, cq.needRank,
		cq.needTot, cq.needNRes, cq.needVerdict, cq.needRes,
	} {
		if need {
			n++
		}
	}
	return n
}

// matchScanRow is the row-level filter over a fully decoded row — the
// v1 path, and the reference semantics the v2 pushdown loop must agree
// with (differential fuzzer).
func (cq *compiledQuery) matchScanRow(row *scanRow) bool {
	if cq.shaSet != nil && !cq.shaSet[row.SHA] {
		return false
	}
	if cq.q.Since != 0 && row.At < cq.q.Since {
		return false
	}
	if cq.q.Until != 0 && row.At > cq.q.Until {
		return false
	}
	if cq.ftSet != nil && !cq.ftSet[row.FT] {
		return false
	}
	if cq.engSet != nil || cq.labSet != nil || cq.q.MaliciousOnly {
		engHit := cq.engSet == nil
		labHit := cq.labSet == nil
		malHit := !cq.q.MaliciousOnly
		for i := range row.Res {
			rr := &row.Res[i]
			if !engHit && cq.engSet[rr.E] {
				engHit = true
			}
			if !labHit && rr.L != "" && cq.labSet[rr.L] {
				labHit = true
			}
			if !malHit && rr.V == int8(report.Malicious) {
				malHit = true
			}
			if engHit && labHit && malHit {
				break
			}
		}
		if !engHit || !labHit || !malHit {
			return false
		}
	}
	return true
}

// monthBounds returns the natural unix-second bounds [start, end] of
// a month partition's rows. ok is false for the zero-timestamp month
// ("0001-01"), whose rows carry At == 0 — outside the month's literal
// range — so it never participates in month-bound time pruning.
func monthBounds(month string) (start, end int64, ok bool) {
	if month == "0001-01" {
		return 0, 0, false
	}
	t, err := time.Parse("2006-01", month)
	if err != nil {
		return 0, 0, false
	}
	return t.Unix(), t.AddDate(0, 1, 0).Unix() - 1, true
}

// scanJob is one unit of a Scan or a Get: a single block of a month.
type scanJob struct {
	month string
	path  string
	bm    blockMeta
}

// prunesBlock decides whether one sidecar entry can be skipped,
// returning the reason ("" = must scan). monthLo/monthHi are the
// month's natural bounds (boundOK false when unknown); shaAllowed is
// the posting-derived block set (nil = no SHA predicate).
func (cq *compiledQuery) prunesBlock(bm *blockMeta, seq int, monthLo, monthHi int64, boundOK bool, shaAllowed map[int]bool) string {
	if bm.Rows == 0 {
		return PruneEmpty
	}
	if shaAllowed != nil && !shaAllowed[seq] {
		return PruneSHA
	}
	lo, hi, haveTime := monthLo, monthHi, boundOK
	if bm.Z != 0 {
		lo, hi, haveTime = bm.TMin, bm.TMax, true
	}
	if haveTime {
		if cq.q.Since != 0 && hi < cq.q.Since {
			return PruneTime
		}
		if cq.q.Until != 0 && lo > cq.q.Until {
			return PruneTime
		}
	}
	if bm.Z != 0 {
		if cq.ftMask != 0 && bm.FTB&cq.ftMask == 0 {
			return PruneFileType
		}
		if cq.engMask != 0 && bm.EngB&cq.engMask == 0 {
			return PruneEngine
		}
		if cq.labMask != 0 && bm.LabB&cq.labMask == 0 {
			return PruneLabel
		}
		if cq.q.MaliciousOnly && bm.Mal == 0 {
			return PruneVerdict
		}
	}
	return ""
}

// postingSeqsFor returns the block-sequence set holding any of shas.
func (ix *partIndex) postingSeqsFor(shas []string) map[int]bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[int]bool)
	for _, sha := range shas {
		for _, id := range ix.postings[sha] {
			out[id] = true
		}
	}
	return out
}

// Scan runs one pushdown aggregation over the store: plan (prune
// blocks via their zone maps), execute (decode surviving blocks with
// column projection on a worker pool), merge (fold partials in
// deterministic job order). It flushes first.
func (s *Store) Scan(q Query, agg Agg) (ScanStats, error) {
	if err := s.Flush(); err != nil {
		return ScanStats{}, err
	}
	return s.scan(s.Months(), q, agg)
}

// scan is Scan over the given months, without the flush.
func (s *Store) scan(months []string, q Query, agg Agg) (ScanStats, error) {
	stats := ScanStats{Pruned: make(map[string]int, len(pruneReasons))}
	cq := compileQuery(q)
	skippedPerBlock := int64(numColSegs - cq.touchedSegments())

	// Plan: walk every block entry, prune or schedule.
	var jobs []scanJob
	for _, month := range months {
		ix := s.index(month)
		if ix == nil {
			continue // accounted (a replica's stats snapshot), no partition yet
		}
		path := s.partPath(month)
		lo, hi, boundOK := monthBounds(month)
		var shaAllowed map[int]bool
		if cq.shaSet != nil {
			shaAllowed = ix.postingSeqsFor(q.SHAs)
		}
		for seq, bm := range ix.snapshotBlocks() {
			stats.Blocks++
			if reason := cq.prunesBlock(&bm, seq, lo, hi, boundOK, shaAllowed); reason != "" {
				stats.Pruned[reason]++
				continue
			}
			stats.Scanned++
			stats.CompressedBytes += bm.Len
			if blockVer(bm) != FormatV1 {
				stats.ColumnsSkipped += skippedPerBlock
			}
			jobs = append(jobs, scanJob{month: month, path: path, bm: bm})
		}
	}

	// Execute: one partial per job; results keep job order for the
	// deterministic merge.
	partials := make([]Partial, len(jobs))
	var rows atomic.Int64
	err := fanOut(q.Workers, len(jobs), func(i int) error {
		pt := agg.NewPartial()
		n, err := s.runScanJob(jobs[i], cq, pt)
		if err != nil {
			return err
		}
		partials[i] = pt
		rows.Add(n)
		return nil
	})
	stats.Rows = rows.Load()
	s.recordScan(stats)
	if err != nil {
		return stats, err
	}

	// Merge in job order: month ascending, block sequence ascending.
	for _, pt := range partials {
		if err := agg.Merge(pt); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// fanOut runs run(0), …, run(n-1) on up to workers goroutines (<= 0
// uses GOMAXPROCS; 1 runs them serially in order). The first error
// wins: once a call fails the remaining indexes are skipped, and that
// error is returned.
func fanOut(workers, n int, run func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && !failed.Load(); i = int(next.Add(1)) - 1 {
				if err := run(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// recordScan folds one call's accounting into the store metrics.
func (s *Store) recordScan(st ScanStats) {
	m := s.m
	m.scanCalls.Inc()
	m.scanBlocks.Add(int64(st.Blocks))
	m.scanScanned.Add(int64(st.Scanned))
	m.scanRows.Add(st.Rows)
	m.colsSkipped.Add(st.ColumnsSkipped)
	for reason, n := range st.Pruned {
		if c := m.pruned[reason]; c != nil {
			c.Add(int64(n))
		}
	}
}

// runScanJob feeds one block's matching rows into pt, returning how
// many matched.
func (s *Store) runScanJob(j scanJob, cq *compiledQuery, pt Partial) (int64, error) {
	ver := blockVer(j.bm)
	if ver > s.maxFormat {
		return 0, &FormatError{Path: j.path, Version: ver, Max: s.maxFormat}
	}
	f, err := os.Open(j.path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if ver == FormatV1 {
		// Full row decode + row-level filter. A block holds many
		// samples, so under a SHA predicate the leading "s" key (always
		// first in canonical encoder output) is peeked and other
		// samples' rows are skipped undecoded.
		rf := rowFeeder{cq: cq, pt: pt}
		rf.rv.Month = j.month
		var row scanRow
		err := scanBlockLinesAt(f, j.path, j.bm, func(line []byte) error {
			if cq.shaSet != nil {
				if got, ok := rowSHA(line); ok && !cq.shaSet[string(got)] {
					return nil
				}
			}
			if err := decodeScanRow(line, &row); err != nil {
				return err
			}
			return rf.row(&row)
		})
		return rf.rows, err
	}
	payload, err := readBlockPayloadAt(f, j.path, j.bm)
	if err != nil {
		return 0, err
	}
	defer bufpool.PutBlockBuf(payload)
	n, err := scanColPushdown(payload, cq, j.month, pt)
	if err != nil {
		return n, fmt.Errorf("store: %s: block @%d: %w", j.path, j.bm.Offset, err)
	}
	return n, nil
}

// rowFeeder adapts decoded v1 rows to the kernel: filter, project into
// a reused RowView, feed.
type rowFeeder struct {
	cq   *compiledQuery
	pt   Partial
	rv   RowView
	res  []ResView
	rows int64
}

func (rf *rowFeeder) row(row *scanRow) error {
	if !rf.cq.matchScanRow(row) {
		return nil
	}
	proj := rf.cq.q.Cols
	if proj&ColSHA != 0 {
		rf.rv.SHA = row.SHA
	}
	if proj&ColTime != 0 {
		rf.rv.At = row.At
	}
	if proj&ColFT != 0 {
		rf.rv.FT = row.FT
	}
	if proj&ColRank != 0 {
		rf.rv.Rank = row.Rank
	}
	if proj&ColTot != 0 {
		rf.rv.Tot = row.Tot
	}
	if proj&ColResults != 0 {
		rf.res = rf.res[:0]
		if cap(rf.res) < len(row.Res) {
			rf.res = make([]ResView, 0, len(row.Res))
		}
		for i := range row.Res {
			rr := &row.Res[i]
			rf.res = append(rf.res, ResView{Eng: rr.E, Lab: rr.L, Sig: rr.S, Ver: rr.V})
		}
		rf.rv.Res = rf.res
	}
	rf.rows++
	return rf.pt.Row(&rf.rv)
}

// scanScratch holds the per-block decode state a pushdown scan reuses
// across blocks (pooled per worker invocation): the four dictionaries
// and the ResView buffer.
type scanScratch struct {
	sha, ft, eng, lab dictCol
	res               []ResView
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// dictCol is one block dictionary as a pushdown scan resolves it. n is
// its entry count; ok[i] records whether entry i is in the query's
// predicate set; vals[i] is entry i's value for a projected column.
// Under lazy projection vals[i] is decoded on first reference from its
// offset in buf (offs[i], -1 once resolved): a Get touching 2 of a
// block's 200 labels pays string work for 2, not 200.
type dictCol struct {
	n      uint64
	ok     []bool
	vals   []string
	lazy   bool
	offs   []int
	buf    []byte
	intern bool
}

// at returns entry i's value; i must be below n.
func (d *dictCol) at(i uint64) string {
	if d.lazy && d.offs[i] >= 0 {
		d.resolve(i)
	}
	return d.vals[i]
}

// resolve decodes a lazily projected entry. walk bounds-checked every
// entry before the row loop could reference one, so the re-read cannot
// fail.
func (d *dictCol) resolve(i uint64) {
	c := colCursor{buf: d.buf, off: d.offs[i]}
	l, _ := c.uvarint()
	b, _ := c.bytes(int(l))
	d.vals[i] = d.value(b)
	d.offs[i] = -1
}

// value materializes one entry: the engine/label/file-type vocabulary
// is interned, sample hashes are plain copies (an unbounded vocabulary
// that must not crowd the intern table).
func (d *dictCol) value(b []byte) string {
	if d.intern {
		return report.InternBytes(b)
	}
	return string(b)
}

// resize returns buf resized to n zeroed elements, reusing its
// capacity.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// scanColPushdown is the projected v2 decode: dictionaries are walked
// raw to resolve predicates (set membership tested against the raw
// bytes — no allocation), values materialize only for projected
// columns, and the row loop touches only the needed segments. Returns
// the number of matching rows fed to pt.
//
// Projection is eager for queries without a SHA set — a full scan
// references most of every projected dictionary, so decoding each
// entry once up front is cheapest — and lazy for queries with one,
// which feed a few rows per block and reference a sliver of it.
func scanColPushdown(payload []byte, cq *compiledQuery, month string, pt Partial) (int64, error) {
	c, rows, _, err := readColHeader(payload)
	if err != nil {
		return 0, err
	}

	ws := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(ws)
	proj := cq.q.Cols
	lazy := cq.shaSet != nil

	// walk resolves one dictionary into d, validating every entry's
	// bounds. anyHit reports whether any entry passed the filter — a
	// miss means the whole block cannot match (the fingerprint was a
	// false positive) and the caller can stop before decoding any
	// segment.
	walk := func(d *dictCol, set map[string]bool, projected, intern bool) (anyHit bool, _ error) {
		d.lazy, d.buf, d.intern = lazy && projected, payload, intern
		filtered := set != nil
		n, err := c.uvarint()
		if err != nil {
			return false, err
		}
		if n > uint64(len(c.buf)-c.off) {
			return false, errColCorrupt
		}
		d.n = n
		if filtered {
			d.ok = resize(d.ok, int(n))
		}
		if projected {
			d.vals = resize(d.vals, int(n))
		}
		if d.lazy {
			d.offs = resize(d.offs, int(n))
		}
		anyHit = !filtered
		// A one-member set (Get's) compares bytes instead of hashing
		// every entry.
		var only string
		if len(set) == 1 {
			for only = range set {
			}
		}
		for i := uint64(0); i < n; i++ {
			start := c.off
			l, err := c.uvarint()
			if err != nil {
				return false, err
			}
			b, err := c.bytes(int(l))
			if err != nil {
				return false, err
			}
			if filtered && (len(set) == 1 && string(b) == only || len(set) > 1 && set[string(b)]) {
				d.ok[i] = true
				anyHit = true
			}
			if d.lazy {
				d.offs[i] = start
			} else if projected {
				d.vals[i] = d.value(b)
			}
		}
		return anyHit, nil
	}

	if hit, err := walk(&ws.sha, cq.shaSet, proj&ColSHA != 0, false); err != nil || !hit {
		return 0, err
	}
	if hit, err := walk(&ws.ft, cq.ftSet, proj&ColFT != 0, true); err != nil || !hit {
		return 0, err
	}
	if hit, err := walk(&ws.eng, cq.engSet, proj&ColResults != 0, true); err != nil || !hit {
		return 0, err
	}
	if hit, err := walk(&ws.lab, cq.labSet, proj&ColResults != 0, true); err != nil || !hit {
		return 0, err
	}

	segs, err := c.segments()
	if err != nil {
		return 0, err
	}

	var (
		shaC  = colCursor{buf: segs[segSHA]}
		timeC = colCursor{buf: segs[segTime]}
		ftC   = colCursor{buf: segs[segFT]}
		rankC = colCursor{buf: segs[segRank]}
		totC  = colCursor{buf: segs[segTot]}
		nresC = colCursor{buf: segs[segNRes]}
		resC  = colCursor{buf: segs[segRes]}
		vr    *verdictReader
	)
	if cq.needVerdict {
		if vr, err = newVerdictReader(segs[segVerdict]); err != nil {
			return 0, err
		}
	}

	rv := RowView{Month: month}
	var (
		fed int64
		at  int64
	)
	for i := 0; i < rows; i++ {
		match := true
		var shaIdx, ftIdx uint64
		if cq.needSHA {
			if shaIdx, err = shaC.uvarint(); err != nil {
				return fed, err
			}
			if shaIdx >= ws.sha.n {
				return fed, errColCorrupt
			}
			if cq.shaSet != nil && !ws.sha.ok[shaIdx] {
				match = false
			}
		}
		if cq.needTime {
			dt, err := timeC.varint()
			if err != nil {
				return fed, err
			}
			at += dt
			if cq.q.Since != 0 && at < cq.q.Since {
				match = false
			}
			if cq.q.Until != 0 && at > cq.q.Until {
				match = false
			}
		}
		// Once a row fails a predicate, its remaining scalar columns are
		// skipped varint-wise rather than decoded.
		if cq.needFT {
			if !match {
				err = ftC.skipVarints(1)
			} else if ftIdx, err = ftC.uvarint(); err == nil {
				if ftIdx >= ws.ft.n {
					return fed, errColCorrupt
				}
				match = cq.ftSet == nil || ws.ft.ok[ftIdx]
			}
			if err != nil {
				return fed, err
			}
		}
		var rank, tot int64
		if cq.needRank {
			if !match {
				err = rankC.skipVarints(1)
			} else {
				rank, err = rankC.varint()
			}
			if err != nil {
				return fed, err
			}
		}
		if cq.needTot {
			if !match {
				err = totC.skipVarints(1)
			} else {
				tot, err = totC.varint()
			}
			if err != nil {
				return fed, err
			}
		}
		if cq.needNRes {
			nres, err := nresC.uvarint()
			if err != nil {
				return fed, err
			}
			if nres > uint64(len(segs[segRes])) {
				return fed, errColCorrupt
			}
			if !match {
				if cq.needRes {
					if err := resC.skipVarints(3 * int(nres)); err != nil {
						return fed, err
					}
				}
				if cq.needVerdict {
					if vr.packed {
						vr.n += int(nres)
					} else if err := vr.c.skipVarints(int(nres)); err != nil {
						return fed, err
					}
				}
				continue
			}
			engHit := cq.engSet == nil
			labHit := cq.labSet == nil
			malHit := !cq.q.MaliciousOnly
			res := ws.res[:0]
			for j := uint64(0); j < nres; j++ {
				var engIdx, labIdx uint64
				var sig int64
				if cq.needRes {
					if engIdx, err = resC.uvarint(); err != nil {
						return fed, err
					}
					if engIdx >= ws.eng.n {
						return fed, errColCorrupt
					}
					if sig, err = resC.varint(); err != nil {
						return fed, err
					}
					if labIdx, err = resC.uvarint(); err != nil {
						return fed, err
					}
					if labIdx > ws.lab.n {
						return fed, errColCorrupt
					}
				}
				var v int8
				if cq.needVerdict {
					if v, err = vr.next(); err != nil {
						return fed, err
					}
				}
				if !engHit && ws.eng.ok[engIdx] {
					engHit = true
				}
				if !labHit && labIdx > 0 && ws.lab.ok[labIdx-1] {
					labHit = true
				}
				if !malHit && v == int8(report.Malicious) {
					malHit = true
				}
				if proj&ColResults != 0 {
					e := ResView{Eng: ws.eng.at(engIdx), Sig: int(sig), Ver: v}
					if labIdx > 0 {
						e.Lab = ws.lab.at(labIdx - 1)
					}
					res = append(res, e)
				}
			}
			ws.res = res
			if !engHit || !labHit || !malHit {
				continue
			}
			if proj&ColResults != 0 {
				rv.Res = res
			}
		} else if !match {
			continue
		}
		if proj&ColSHA != 0 {
			rv.SHA = ws.sha.at(shaIdx)
		}
		if proj&ColTime != 0 {
			rv.At = at
		}
		if proj&ColFT != 0 {
			rv.FT = ws.ft.at(ftIdx)
		}
		if proj&ColRank != 0 {
			rv.Rank = int(rank)
		}
		if proj&ColTot != 0 {
			rv.Tot = int(tot)
		}
		fed++
		if err := pt.Row(&rv); err != nil {
			return fed, err
		}
	}
	return fed, nil
}

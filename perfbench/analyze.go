package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vtdynamics/internal/core"
	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
)

// analyzeEnv is the analyze workload's fixture: a store the collect
// path built, and what the simulated service says it must hold.
type analyzeEnv struct {
	dir     string
	reports int
	byType  map[string]int64
	// multi are the samples with more than one report, sorted; want
	// holds the service's history of each.
	multi []string
	want  map[string]*report.History
	// stream is the lookup stream: stored samples drawn with
	// probability proportional to their report count.
	stream []string
}

// setupAnalyze replays a campaign and collects it into a store with
// the collect workload's poll step and per-poll Sync, so the block
// layout is the one vtcollect users read. The collector polls the
// service directly: the envelopes, and so the store's bytes, are the
// ones the HTTP feed would deliver.
func (r *run) setupAnalyze(dir string) (*analyzeEnv, error) {
	camp, err := newCampaign(r.cfg.seed, r.cfg.sizes.samples)
	if err != nil {
		return nil, err
	}
	svc := camp.svc
	src := feed.SourceFunc(func(_ context.Context, from, to time.Time) ([]report.Envelope, error) {
		return svc.FeedBetween(from, to), nil
	})
	if _, err := r.collectStore(context.Background(), spanCtx{}, src, dir, r.cfg.sizes.pollStep, obs.NewRegistry()); err != nil {
		return nil, err
	}
	env := &analyzeEnv{dir: dir, reports: camp.reports, byType: map[string]int64{}, want: map[string]*report.History{}}
	counts := map[string]int{}
	for _, e := range svc.FeedBetween(simclock.CollectionStart, simclock.CollectionEnd) {
		env.byType[e.Scan.FileType]++
		counts[e.Meta.SHA256]++
	}
	shas := make([]string, 0, len(counts))
	for sha := range counts {
		shas = append(shas, sha)
	}
	sort.Strings(shas)
	cum := make([]int, len(shas))
	total := 0
	for i, sha := range shas {
		total += counts[sha]
		cum[i] = total
		if counts[sha] > 1 {
			env.multi = append(env.multi, sha)
			if env.want[sha], err = svc.History(sha); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	env.stream = make([]string, r.cfg.sizes.lookups)
	for i := range env.stream {
		x := rng.Intn(total)
		env.stream[i] = shas[sort.SearchInts(cum, x+1)]
	}
	return env, nil
}

// analysisWindow is the middle fifth of the collection span: most
// blocks fall outside it, so zone maps prune them before gunzip.
func analysisWindow() (since, until int64) {
	span := simclock.CollectionEnd.Unix() - simclock.CollectionStart.Unix()
	return simclock.CollectionStart.Unix() + span*2/5, simclock.CollectionStart.Unix() + span*3/5
}

// census is the full or windowed census kernel set.
type census struct {
	count store.CountAgg
	group store.GroupCountByType
	eng   store.EngineAgg
}

func (c *census) agg() store.Agg {
	return &store.MultiAgg{Aggs: []store.Agg{&c.count, &c.group, &c.eng}}
}

// runAnalyze times the paper's analysis pass over the stored
// campaign, then a skewed stream of history lookups.
func runAnalyze(r *run) (*measurement, error) {
	m := &measurement{}
	env, err := setUp(m, func(i int) (*analyzeEnv, error) {
		return r.setupAnalyze(filepath.Join(r.cfg.workdir, fmt.Sprintf("analyze-store-%d", i)))
	}, func(e *analyzeEnv) { os.RemoveAll(e.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	distinct := map[string]bool{}
	for _, sha := range env.stream {
		distinct[sha] = true
	}
	multiReports := 0
	for _, h := range env.want {
		multiReports += len(h.Reports)
	}
	fmt.Fprintf(os.Stderr, "perfbench: analyze: %d reports; %d multi-report samples hold %d; lookup stream of %d Gets over %d distinct samples\n",
		env.reports, len(env.multi), multiReports, len(env.stream), len(distinct))
	size, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}

	var rates, lats []float64
	err = r.passes(3, 0, func(traced bool) error {
		reg := obs.NewRegistry()
		root := r.tr.Load().begin(spanCtx{}, "bench", "analyze")
		t0 := time.Now()
		res, err := r.analysisPass(root.ctx(), env, reg)
		analyzeS := time.Since(t0).Seconds()
		root.end()
		if err != nil {
			r.ops(1, 1)
			return err
		}
		defer res.st.Close()
		r.checkAnalysis(env, res)

		// The lookup stream reuses the pass's store handle, as a query
		// server would: the pass's own Gets are already cached.
		gets0 := reg.SumCounters("store_gets_total")
		hits0 := reg.SumCounters("store_cache_hits_total")
		lroot := r.tr.Load().begin(spanCtx{}, "bench", "lookups")
		lat := make([]float64, 0, len(env.stream))
		var getErrs int64
		for _, sha := range env.stream {
			t := time.Now()
			err := r.call(lroot.ctx(), "store", "get", func(spanCtx) error {
				_, err := res.st.Get(sha)
				return err
			})
			lat = append(lat, time.Since(t).Seconds())
			if err != nil {
				getErrs++
			}
		}
		lroot.end()
		r.ops(int64(len(env.stream)), getErrs)
		hits := reg.SumCounters("store_cache_hits_total") - hits0
		gets := reg.SumCounters("store_gets_total") - gets0
		r.check(hits > 0 && hits < gets, "analyze: lookup stream hit the history cache %d times in %d gets; want strictly between", hits, gets)

		if traced {
			m.traced = append(m.traced, analyzeS)
			st := r.takeSpans(m)
			allGets := float64(reg.SumCounters("store_gets_total"))
			m.layers = append(m.layers, map[string]float64{
				"store.open_s":                st.total["store.open"],
				"store.scan_census_s":         st.total["store.scan_census"],
				"store.scan_flips_s":          st.total["store.scan_flips"],
				"store.scan_window_s":         st.total["store.scan_window"],
				"store.scan_blocks":           float64(reg.SumCounters("store_scan_blocks_total")),
				"store.scan_blocks_pruned":    float64(reg.SumCounters("store_blocks_pruned_total")),
				"store.scan_rows":             float64(reg.SumCounters("store_scan_rows_total")),
				"core.series_s":               st.total["core.series"],
				"core.flips_s":                st.total["core.flips"],
				"core.corr_s":                 st.total["core.corr"],
				"store.get_busy_s":            st.total["store.get"],
				"store.gets":                  allGets,
				"store.block_decodes_per_get": float64(reg.SumCounters("store_block_decodes_total")) / allGets,
				"store.cache_hit_ratio":       float64(hits) / float64(gets),
			})
			return nil
		}
		m.untraced = append(m.untraced, analyzeS)
		rates = append(rates, float64(env.reports)/analyzeS)
		lats = append(lats, lat...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.e2e = map[string]float64{
		"throughput_per_s": median(rates),
		"op_p75_us":        quantile(lats, 0.75) * 1e6,
		"op_p90_us":        quantile(lats, 0.90) * 1e6,
		"bytes_per_op":     float64(size) / float64(env.reports),
	}
	return m, nil
}

// passResult is what one analysis pass produced.
type passResult struct {
	st           *store.Store
	full, window census
	windowStats  store.ScanStats
	flips        store.FlipCountAgg
	hists        map[string]*report.History
	classes      map[core.Class]int
	// stable[r] counts histories whose AV-Rank stabilizes within r.
	stable    [6]int
	flipTotal core.FlipCounts
	corrPairs int
}

// analysisPass is the timed region: a cold Open, the three census
// scans, one Get per multi-report sample, and the core analyses over
// those histories. The caller closes the returned store.
func (r *run) analysisPass(parent spanCtx, env *analyzeEnv, reg *obs.Registry) (*passResult, error) {
	res := &passResult{hists: make(map[string]*report.History, len(env.multi)), classes: map[core.Class]int{}}
	err := r.call(parent, "store", "open", func(spanCtx) error {
		var err error
		res.st, err = store.Open(env.dir, store.WithMetrics(reg))
		return err
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*passResult, error) {
		res.st.Close()
		return nil, err
	}
	st := res.st
	err = r.call(parent, "store", "scan_census", func(spanCtx) error {
		_, err := st.Scan(store.Query{Cols: store.ColFT | store.ColTime | store.ColResults}, res.full.agg())
		return err
	})
	if err != nil {
		return fail(err)
	}
	err = r.call(parent, "store", "scan_flips", func(spanCtx) error {
		_, err := st.Scan(store.Query{Cols: store.ColSHA | store.ColResults}, &res.flips)
		return err
	})
	if err != nil {
		return fail(err)
	}
	since, until := analysisWindow()
	err = r.call(parent, "store", "scan_window", func(spanCtx) error {
		var err error
		res.windowStats, err = st.Scan(store.Query{
			Since: since, Until: until, Cols: store.ColFT | store.ColTime | store.ColResults,
		}, res.window.agg())
		return err
	})
	if err != nil {
		return fail(err)
	}
	hists := make([]*report.History, 0, len(env.multi))
	for _, sha := range env.multi {
		var h *report.History
		err := r.call(parent, "store", "get", func(spanCtx) error {
			var err error
			h, err = st.Get(sha)
			return err
		})
		if err != nil {
			return fail(err)
		}
		res.hists[sha] = h
		hists = append(hists, h)
	}
	r.ops(int64(3+len(env.multi)), 0)

	_ = r.call(parent, "core", "series", func(spanCtx) error {
		for _, h := range hists {
			s := core.FromHistory(h)
			res.classes[s.Classify()]++
			for rng := range res.stable {
				if s.StabilizeWithin(rng).Stable {
					res.stable[rng]++
				}
			}
		}
		return nil
	})
	_ = r.call(parent, "core", "flips", func(spanCtx) error {
		fm := core.NewFlipMatrix()
		for _, h := range hists {
			fm.AddHistory(h)
		}
		res.flipTotal = fm.Total()
		return nil
	})
	err = r.call(parent, "core", "corr", func(spanCtx) error {
		engines := make([]string, 0, len(res.full.eng.Engines))
		for e := range res.full.eng.Engines {
			engines = append(engines, e)
		}
		sort.Strings(engines)
		vm := core.NewVerdictMatrix(engines)
		for _, h := range hists {
			vm.AddHistory(h)
		}
		pairs, err := vm.Correlations()
		res.corrPairs = len(pairs)
		return err
	})
	if err != nil {
		return fail(err)
	}
	return res, nil
}

// checkAnalysis compares a pass's answers with the service's.
func (r *run) checkAnalysis(env *analyzeEnv, res *passResult) {
	r.check(res.full.count.N == int64(env.reports), "analyze: census counted %d rows, collected %d", res.full.count.N, env.reports)
	r.check(maps.Equal(res.full.group.Counts, env.byType), "analyze: per-type census %v differs from the service's %v", res.full.group.Counts, env.byType)
	ws := res.windowStats
	r.check(ws.PrunedTotal()+ws.Scanned == ws.Blocks && ws.PrunedTotal() > 0,
		"analyze: window scan pruned %d and scanned %d of %d blocks", ws.PrunedTotal(), ws.Scanned, ws.Blocks)
	bad := 0
	for sha, want := range env.want {
		if !sameHistory(res.hists[sha], want) {
			bad++
		}
	}
	r.check(bad == 0, "analyze: %d of %d stored histories differ from the service's", bad, len(env.want))
	classified := 0
	for _, n := range res.classes {
		classified += n
	}
	r.check(classified == len(env.multi), "analyze: classified %d of %d histories", classified, len(env.multi))
	for rng := 1; rng < len(res.stable); rng++ {
		r.check(res.stable[rng] >= res.stable[rng-1],
			"analyze: %d histories stabilize within %d but only %d within %d", res.stable[rng-1], rng-1, res.stable[rng], rng)
	}
	r.check(res.flips.Pairs > 0 && res.corrPairs > 0 && res.flipTotal.Flips() > 0,
		"analyze: empty dynamics (%d flip pairs, %d correlation pairs, %d flips)", res.flips.Pairs, res.corrPairs, res.flipTotal.Flips())
}

// sameHistory compares the fields the store keeps; the store holds
// analysis times at second resolution.
func sameHistory(got, want *report.History) bool {
	if got == nil || len(got.Reports) != len(want.Reports) {
		return false
	}
	for i, g := range got.Reports {
		w := want.Reports[i]
		if g.SHA256 != w.SHA256 || g.FileType != w.FileType || g.AnalysisDate.Unix() != w.AnalysisDate.Unix() ||
			g.AVRank != w.AVRank || g.EnginesTotal != w.EnginesTotal || len(g.Results) != len(w.Results) {
			return false
		}
		for j := range g.Results {
			if g.Results[j] != w.Results[j] {
				return false
			}
		}
	}
	return true
}

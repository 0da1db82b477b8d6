// Command perfbench is the repository's benchmark: it drives the
// paper's pipeline (simulated VT service, HTTP API, feed collector,
// compressed store, label-dynamics analyses) through the packages'
// public functions on one of three workloads, checks the outputs, and
// prints one JSON result line.
//
//	go run . --workload collect|analyze|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// without tracing. With --trace 1 the run alternates untraced and
// traced passes; the traced ones record a span around every call the
// benchmark makes into a layer, and the result carries the per-layer
// metrics derived from those spans plus the tracing overhead. Spans
// are written as JSON lines under --spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one invocation. The sizes default to the workload's
// benchmark sizes; the tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	spans    string
	sizes    sizes
	// delay injects a sleep into the benchmark's wrapper around one
	// layer call, keyed "layer.name" (the attribution self-test).
	delay map[string]time.Duration
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, _, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "collect, analyze or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sz, ok := defaultSizes[*workload]
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (want collect, analyze or serve)", *workload)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("bad --seconds %v: want > 0", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("bad --trace %d: want 0 or 1", *trace)
	}
	return config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir, spans: *spans, sizes: sz,
	}, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one invocation shares across its passes.
type run struct {
	cfg config
	// tr is the live tracer, nil during untraced passes. Server
	// goroutines read it, so it is swapped atomically between passes.
	tr atomic.Pointer[tracer]

	// injected counts the delays applied for cfg.delay.
	injected atomic.Int64

	mu        sync.Mutex
	attempted int64
	failed    int64
}

// call times fn as a span of layer under parent (when tracing) and
// applies any injected delay inside that span.
func (r *run) call(parent spanCtx, layer, name string, fn func(spanCtx) error) error {
	sp := r.tr.Load().begin(parent, layer, name)
	if d := r.cfg.delay[layer+"."+name]; d > 0 {
		r.injected.Add(1)
		time.Sleep(d)
	}
	err := fn(sp.ctx())
	sp.end()
	return err
}

// ops counts operations attempted and failed.
func (r *run) ops(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// check records one output check; a failed check is a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	var failed int64
	if !ok {
		failed = 1
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	r.ops(1, failed)
}

// passes runs pass repeatedly until the run's time is spent, at least
// minPasses times (minPasses >= 2) and, when maxPasses > 0, at most
// maxPasses times. With tracing on, passes alternate untraced and
// traced, starting untraced. It stops at the first pass error.
func (r *run) passes(minPasses, maxPasses int, pass func(traced bool) error) error {
	// One tracer serves every traced pass, so span IDs and times are
	// unique across the run.
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	for i := 0; i < minPasses || (time.Now().Before(deadline) && (maxPasses == 0 || i < maxPasses)); i++ {
		traced := r.cfg.trace && i%2 == 1
		if traced {
			r.tr.Store(tr)
		}
		err := pass(traced)
		r.tr.Store(nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// setUp builds a workload's fixture setups times, timing each, and
// keeps the last. Each earlier fixture is dropped before the next is
// built, so at most one is alive.
func setUp[T any](m *measurement, build func(i int) (T, error), drop func(T)) (T, error) {
	var fx T
	for i := 0; i < setups; i++ {
		if i > 0 {
			drop(fx)
		}
		t0 := time.Now()
		var err error
		if fx, err = build(i); err != nil {
			return fx, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	return fx, nil
}

// takeSpans ends a traced pass: it moves the tracer's spans into m
// and returns what they say.
func (r *run) takeSpans(m *measurement) *spanStats {
	spans := r.tr.Load().take()
	m.spans = append(m.spans, spans...)
	return analyzeSpans(spans)
}

// measurement is what a workload hands back.
type measurement struct {
	setup []float64
	// e2e holds the workload's end-to-end values except setup_s,
	// peak_live_heap_mb and ok_share, which execute fills in.
	e2e map[string]float64
	// layers holds one map of per-layer values per traced pass.
	layers []map[string]float64
	// untraced and traced are the workload's primary time (seconds
	// or a latency) per pass, for the tracing overhead.
	untraced, traced []float64
	spans            []span
}

// workloads maps a workload name to its implementation.
var workloads = map[string]func(r *run) (*measurement, error){
	"collect": runCollect,
	"analyze": runAnalyze,
	"serve":   runServe,
}

// execute runs one workload and assembles its result; the run's state
// comes back for the tests.
func execute(cfg config) (*result, *run, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	heap := startHeapSampler()
	r := &run{cfg: cfg}
	m, err := workloads[cfg.workload](r)
	peak := heap.stop()
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setups %.3v s; untraced passes %.4v; traced passes %.4v\n",
		cfg.workload, cfg.seed, m.setup, m.untraced, m.traced)
	var st *spanStats
	if cfg.trace {
		st = analyzeSpans(m.spans)
		e := st.identityError()
		r.check(e <= identityTolerance,
			"accounting identity: layer self times sum to %.6fs, roots to %.6fs (%.2f%% > %.0f%%)",
			st.selfSum, st.rootWall, 100*e, 100*identityTolerance)
	}
	if r.attempted < 1 {
		return nil, nil, errors.New("no operation attempted")
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":           median(m.setup),
			"peak_live_heap_mb": float64(peak) / (1 << 20),
			"ok_share":          1 - float64(r.failed)/float64(r.attempted),
		}
		for k, v := range m.e2e {
			vals[k] = v
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		return res, r, nil
	}
	// Per-layer values are medians over the traced passes; self times
	// and span counts are means per traced pass.
	vals := map[string]float64{}
	for _, d := range perLayer {
		var per []float64
		for _, l := range m.layers {
			per = append(per, l[d.name])
		}
		vals[d.name] = median(per)
	}
	n := float64(len(m.layers))
	for layer, s := range st.self {
		vals[layer+".self_s"] = s / n
	}
	vals["trace.identity_error"] = st.identityError()
	vals["trace.spans_per_pass"] = float64(len(m.spans)) / n
	if u := median(m.untraced); u > 0 {
		vals["trace.overhead_share"] = (median(m.traced) - u) / u
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, m.spans); err != nil {
		return nil, nil, err
	}
	return res, r, nil
}

// heapSampler tracks the peak of /gc/heap/live:bytes.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const liveHeap = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
}

func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.peak
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

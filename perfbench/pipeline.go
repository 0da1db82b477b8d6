package main

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtclient"
	"vtdynamics/internal/vtsim"
)

// sizes are the workload inputs that the seed does not choose.
type sizes struct {
	// samples is the simulated population.
	samples int
	// pollStep is the collector's poll interval in simulated time.
	pollStep time.Duration
	// lookups is the length of analyze's Get stream per pass.
	lookups int
	// rate is serve's offered load in requests per second.
	rate float64
}

// week is the collect and analyze poll step: over the 14-month
// campaign it gives 61 polls, and at the benchmark's population each
// poll carries over a hundred envelopes, so a poll's rows fill the
// store's 256 KiB block target as the paper's per-minute polls of
// about 1,400 reports did.
const week = 7 * 24 * time.Hour

var defaultSizes = map[string]sizes{
	"collect": {samples: 3000, pollStep: 2 * week},
	"analyze": {samples: 8000, pollStep: 2 * week, lookups: 8000},
	"serve":   {samples: 20000, rate: 400},
}

// campaign is one seeded population replayed into a simulated service
// over the paper's collection window.
type campaign struct {
	svc     *vtsim.Service
	reg     *obs.Registry
	reports int
}

func newCampaign(seed int64, samples int) (*campaign, error) {
	set, err := engine.NewSet(engine.DefaultRoster(), seed, simclock.CollectionStart, simclock.CollectionEnd)
	if err != nil {
		return nil, err
	}
	pop, err := sampleset.Generate(sampleset.Config{Seed: seed, NumSamples: samples})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	clock := simclock.NewSim(simclock.CollectionStart)
	svc := vtsim.NewService(set, clock, vtsim.WithMetrics(reg))
	if err := vtsim.RunWorkload(svc, clock, pop); err != nil {
		return nil, err
	}
	return &campaign{svc: svc, reg: reg, reports: svc.NumReports()}, nil
}

// collectStore runs vtcollect's write path into a fresh store at dir:
// a resumable collector with a file cursor, one worker, a store Sync
// and a cursor save after every poll, then Close. src is the feed the
// collector polls; parent is the span the calls belong to.
func (r *run) collectStore(ctx context.Context, parent spanCtx, src feed.Source, dir string, step time.Duration, reg *obs.Registry) (collectStats, error) {
	var cs collectStats
	st, err := store.Open(dir, store.WithMetrics(reg))
	if err != nil {
		return cs, err
	}
	start := time.Now()
	cur := &pollCursor{r: r, c: &feed.FileCursor{Path: filepath.Join(dir, "collect.cursor")}, last: start}
	sink := &storeSink{r: r, st: st}
	coll := feed.NewCollector(src, sink)
	coll.Interval = step
	coll.Workers = 1
	err = r.call(parent, "feed", "run", func(sc spanCtx) error {
		cur.parent, sink.parent = sc, sc
		var err error
		cs.stats, err = coll.RunResumable(withSpan(ctx, sc), simclock.CollectionStart, simclock.CollectionEnd, cur)
		return err
	})
	if cerr := r.call(parent, "store", "close", func(spanCtx) error { return st.Close() }); err == nil {
		err = cerr
	}
	cs.wall = time.Since(start)
	cs.polls = cur.lat
	return cs, err
}

type collectStats struct {
	stats feed.Stats
	wall  time.Duration
	polls []float64 // seconds per poll, fetch to checkpoint saved
}

// storeSink is the collector's sink: the store, with a span around
// each call. It keeps the store's batch commit and Sync, so the
// collector flushes exactly as it does on the bare store.
type storeSink struct {
	r      *run
	parent spanCtx
	st     *store.Store
}

func (s *storeSink) Put(env report.Envelope) error {
	return s.r.call(s.parent, "store", "put", func(spanCtx) error { return s.st.Put(env) })
}

func (s *storeSink) PutBatch(envs []report.Envelope) error {
	return s.r.call(s.parent, "store", "put_batch", func(spanCtx) error { return s.st.PutBatch(envs) })
}

func (s *storeSink) Sync() error {
	return s.r.call(s.parent, "store", "sync", func(spanCtx) error { return s.st.Sync() })
}

// pollCursor is the collector's checkpoint cursor. A save ends a poll,
// so the gaps between saves are the per-poll latencies.
type pollCursor struct {
	r      *run
	parent spanCtx
	c      *feed.FileCursor
	last   time.Time
	lat    []float64
}

func (p *pollCursor) Load() (time.Time, bool, error) { return p.c.Load() }

func (p *pollCursor) Save(t time.Time) error {
	err := p.r.call(p.parent, "feed", "cursor_save", func(spanCtx) error { return p.c.Save(t) })
	now := time.Now()
	p.lat = append(p.lat, now.Sub(p.last).Seconds())
	p.last = now
	return err
}

// clientFeed is a feed source that polls the HTTP API through
// vtclient, with a span per call.
func (r *run) clientFeed(cl *vtclient.Client) feed.Source {
	return feed.SourceFunc(func(ctx context.Context, from, to time.Time) ([]report.Envelope, error) {
		parent, _ := ctx.Value(spanKey{}).(spanCtx)
		var envs []report.Envelope
		err := r.call(parent, "vtclient", "feed", func(sc spanCtx) error {
			var err error
			envs, err = cl.FeedBetween(withSpan(ctx, sc), from, to)
			return err
		})
		return envs, err
	})
}

// apiHandler wraps the API server: a span per request, parented on
// the client span named in the request header, and a count of the
// response bytes.
type apiHandler struct {
	r         *run
	next      http.Handler
	respBytes atomic.Int64
}

func (h *apiHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	parent := parseSpanHeader(req.Header.Get(spanHeader))
	_ = h.r.call(parent, "vtapi", opOf(req), func(spanCtx) error {
		h.next.ServeHTTP(cw, req)
		return nil
	})
	h.respBytes.Add(cw.n)
}

// opOf names the API operation a request addresses.
func opOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/api/v3/feed/reports":
		return "feed"
	case p == "/api/v3/files":
		return "upload"
	case strings.HasSuffix(p, "/analyse"):
		return "rescan"
	default:
		return "report"
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// loopback serves h on an OS-assigned loopback port.
type loopback struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return lb, nil
}

// close stops the server and waits for its goroutine.
func (lb *loopback) close() {
	_ = lb.srv.Close() // closing listeners and connections cannot fail in a way the run can act on
	<-lb.done
}

// httpClient is the benchmark's HTTP client: conns connections at
// most, with the caller's span stamped on each request.
func httpClient(conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: spanTransport{base: tr}, Timeout: time.Minute}, tr
}

// counterDelta reads counters before and after a pass.
func counterDelta(reg *obs.Registry, names ...string) func() map[string]int64 {
	before := map[string]int64{}
	for _, n := range names {
		before[n] = reg.SumCounters(n)
	}
	return func() map[string]int64 {
		d := map[string]int64{}
		for _, n := range names {
			d[n] = reg.SumCounters(n) - before[n]
		}
		return d
	}
}

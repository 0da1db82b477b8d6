package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/loadgen"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
	"vtdynamics/internal/vtsim"
)

// Serve's traffic: loadgen's default mix from two lanes, one
// connection each, Zipf-skewed submitters and popularity-skewed
// samples, at a fixed offered rate with no storm phases.
const (
	serveLanes      = 2
	serveSubmitters = 1000
	serveZipf       = 1.1
	serveFeedWindow = 2 * time.Second
	// serveFeedLimit pages feed reads at ten envelopes, so every
	// response is a small message; collect covers large feed pages.
	serveFeedLimit = 10
	// servePass is the length of one schedule; a run repeats it.
	servePass = 4 * time.Second
)

// serveEnv is the serve workload's fixture: a real-clock service
// behind the API on loopback, and one client with a connection per
// lane.
type serveEnv struct {
	reg     *obs.Registry
	api     *apiHandler
	lb      *loopback
	tr      *http.Transport
	client  *vtclient.Client
	samples []*sampleset.Sample
}

func (e *serveEnv) close() {
	e.tr.CloseIdleConnections()
	e.lb.close()
}

func (r *run) setupServe() (*serveEnv, error) {
	// The service runs on the wall clock (the schedule is wall time),
	// so the engines cover a wide window around now, as vtsimd's
	// real-clock mode does.
	now := time.Now()
	set, err := engine.NewSet(engine.DefaultRoster(), r.cfg.seed, now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0))
	if err != nil {
		return nil, err
	}
	samples, err := sampleset.Generate(sampleset.Config{Seed: r.cfg.seed, NumSamples: r.cfg.sizes.samples})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	svc := vtsim.NewService(set, simclock.Real{}, vtsim.WithMetrics(reg))
	api := &apiHandler{r: r, next: vtapi.NewServer(svc, nil, vtapi.WithMetrics(reg))}
	lb, err := serveLoopback(api)
	if err != nil {
		return nil, err
	}
	hc, tr := httpClient(serveLanes)
	cl := vtclient.New(lb.url, vtclient.WithMetrics(reg), vtclient.WithHTTPClient(hc), vtclient.WithBackoff(time.Millisecond))
	return &serveEnv{reg: reg, api: api, lb: lb, tr: tr, client: cl, samples: samples}, nil
}

// do sends one generated request through the client.
func (e *serveEnv) do(ctx context.Context, req *loadgen.Request) error {
	s := e.samples[req.Sample]
	var err error
	switch req.Kind {
	case loadgen.KindUpload:
		_, err = e.client.Upload(ctx, vtapi.UploadDescriptor{
			SHA256: s.SHA256, FileType: s.FileType, Size: s.Size,
			Malicious: s.Malicious, Detectability: s.Detectability,
		})
	case loadgen.KindReport:
		_, err = e.client.Report(ctx, s.SHA256)
	case loadgen.KindRescan:
		_, err = e.client.Rescan(ctx, s.SHA256)
	case loadgen.KindFeed:
		to := req.Scheduled
		_, err = e.client.FeedBetweenLimit(ctx, to.Add(-serveFeedWindow), to, serveFeedLimit)
	}
	if errors.Is(err, vtclient.ErrNotFound) {
		// A report or rescan that reaches a sample ahead of its first
		// upload is a legitimate answer under an open-loop mix.
		return fmt.Errorf("%w: %v", loadgen.ErrNotFound, err)
	}
	return err
}

// runServe offers the API mix at a fixed rate and times every request
// from its scheduled start.
func runServe(r *run) (*measurement, error) {
	m := &measurement{}
	env, err := setUp(m, func(int) (*serveEnv, error) { return r.setupServe() }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	// Each pass offers the same schedule again; the service keeps the
	// samples earlier passes uploaded. Latency quantiles are taken per
	// pass and reported as medians over the passes, so one pass that
	// meets a host stall does not set the run's tail.
	// The service's state grows with every pass, so the pass count is
	// fixed by --seconds, not by how fast the passes ran.
	arrivals := int(r.cfg.sizes.rate * servePass.Seconds())
	n := max(3, int(r.cfg.seconds/servePass.Seconds()))
	var rates, p75s, p90s, bytesPer []float64
	err = r.passes(n, n, func(traced bool) error {
		var mu sync.Mutex
		passLat := make([]float64, 0, arrivals)
		delta := counterDelta(env.reg, "client_attempts_total", "api_requests_total", "sim_scans_total")
		bytes0 := env.api.respBytes.Load()
		target := loadgen.TargetFunc(func(ctx context.Context, req *loadgen.Request) error {
			op := req.Kind.String()
			err := r.call(spanCtx{}, "vtclient", op, func(sc spanCtx) error {
				return env.do(withSpan(ctx, sc), req)
			})
			lat := time.Since(req.Scheduled).Seconds()
			mu.Lock()
			passLat = append(passLat, lat)
			mu.Unlock()
			return err
		})
		rep, err := loadgen.Run(context.Background(), loadgen.Config{
			Rate: r.cfg.sizes.rate, Clients: serveLanes, Arrivals: arrivals, Seed: r.cfg.seed,
			Submitters: serveSubmitters, ZipfExponent: serveZipf, Samples: len(env.samples),
			FeedWindow: serveFeedWindow, Metrics: obs.NewRegistry(),
		}, target)
		if err != nil {
			r.ops(int64(arrivals), int64(arrivals))
			return err
		}
		d := delta()
		r.ops(int64(arrivals), rep.Errors+int64(arrivals)-rep.Completed)
		r.check(rep.Completed == int64(arrivals), "serve: completed %d of %d offered arrivals", rep.Completed, arrivals)
		r.check(d["client_attempts_total"] == d["api_requests_total"],
			"serve: client sent %d attempts, server counted %d requests", d["client_attempts_total"], d["api_requests_total"])

		if traced {
			m.traced = append(m.traced, quantile(passLat, 0.5))
			st := r.takeSpans(m)
			vals := map[string]float64{
				"vtsim.scans":              float64(d["sim_scans_total"]),
				"loadgen.sched_lag_max_ms": rep.MaxSchedLag * 1e3,
			}
			var client, handler float64
			for _, op := range loadgen.OpNames() {
				vals["vtclient."+op+"_p50_ms"] = quantile(st.durs["vtclient."+op], 0.50) * 1e3
				vals["vtclient."+op+"_p99_ms"] = quantile(st.durs["vtclient."+op], 0.99) * 1e3
				vals["vtapi."+op+"_handler_s"] = st.total["vtapi."+op]
				client += st.total["vtclient."+op]
				handler += st.total["vtapi."+op]
			}
			vals["vtapi.transport_wait_s"] = client - handler
			m.layers = append(m.layers, vals)
			return nil
		}
		m.untraced = append(m.untraced, quantile(passLat, 0.5))
		rates = append(rates, float64(rep.Completed)/(float64(rep.WallNS)/1e9))
		p75s = append(p75s, quantile(passLat, 0.75))
		p90s = append(p90s, quantile(passLat, 0.90))
		bytesPer = append(bytesPer, float64(env.api.respBytes.Load()-bytes0)/float64(len(passLat)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.e2e = map[string]float64{
		"throughput_per_s": median(rates),
		"op_p75_us":        median(p75s) * 1e6,
		"op_p90_us":        median(p90s) * 1e6,
		"bytes_per_op":     median(bytesPer),
	}
	return m, nil
}

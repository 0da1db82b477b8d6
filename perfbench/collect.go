package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
)

// collectEnv is the collect workload's fixture: a replayed campaign
// served over loopback HTTP and a client polling it.
type collectEnv struct {
	camp   *campaign
	api    *apiHandler
	lb     *loopback
	client *vtclient.Client
	tr     *http.Transport
}

func (e *collectEnv) close() {
	e.tr.CloseIdleConnections()
	e.lb.close()
}

func (r *run) setupCollect() (*collectEnv, error) {
	camp, err := newCampaign(r.cfg.seed, r.cfg.sizes.samples)
	if err != nil {
		return nil, err
	}
	api := &apiHandler{r: r, next: vtapi.NewServer(camp.svc, nil, vtapi.WithMetrics(camp.reg))}
	lb, err := serveLoopback(api)
	if err != nil {
		return nil, err
	}
	hc, tr := httpClient(1)
	cl := vtclient.New(lb.url, vtclient.WithMetrics(camp.reg), vtclient.WithHTTPClient(hc))
	return &collectEnv{camp: camp, api: api, lb: lb, client: cl, tr: tr}, nil
}

// runCollect times vtcollect's path: poll the feed over HTTP, commit
// each poll to a fresh store with a Sync and a checkpoint, Close.
func runCollect(r *run) (*measurement, error) {
	m := &measurement{}
	env, err := setUp(m, func(int) (*collectEnv, error) { return r.setupCollect() }, (*collectEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	var rates, lats, bytesPer []float64
	pass := 0
	err = r.passes(3, 0, func(traced bool) error {
		pass++
		dir := filepath.Join(r.cfg.workdir, fmt.Sprintf("collect-%d", pass))
		defer os.RemoveAll(dir)
		reg := obs.NewRegistry()
		delta := counterDelta(env.camp.reg, "client_retries_total")
		bytes0 := env.api.respBytes.Load()

		root := r.tr.Load().begin(spanCtx{}, "bench", "collect")
		cs, err := r.collectStore(context.Background(), root.ctx(), r.clientFeed(env.client), dir, r.cfg.sizes.pollStep, reg)
		root.end()
		r.ops(int64(cs.stats.Polls), 0)
		if err != nil {
			r.ops(1, 1)
			return err
		}
		want := env.camp.reports
		r.check(cs.stats.Envelopes == want, "collect: collector stored %d envelopes, service generated %d", cs.stats.Envelopes, want)
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		n, err := verifyStore(dir)
		r.check(err == nil && n == want, "collect: reopened store verified %d rows (err %v), service generated %d", n, err, want)

		wall := cs.wall.Seconds()
		if traced {
			m.traced = append(m.traced, wall)
			d := delta()
			envs := float64(cs.stats.Envelopes)
			hist := func(name string) float64 {
				return reg.Histogram(name, obs.DefBuckets).Snapshot().Sum
			}
			st := r.takeSpans(m)
			m.layers = append(m.layers, map[string]float64{
				"vtclient.feed_busy_s":               st.total["vtclient.feed"],
				"vtclient.feed_calls":                float64(st.count["vtclient.feed"]),
				"vtclient.retries":                   float64(d["client_retries_total"]),
				"vtapi.feed_handler_s":               st.total["vtapi.feed"],
				"vtapi.feed_resp_bytes_per_envelope": float64(env.api.respBytes.Load()-bytes0) / envs,
				"feed.polls":                         float64(cs.stats.Polls),
				"feed.envelopes_per_poll":            envs / float64(cs.stats.Polls),
				"store.put_batch_s":                  st.total["store.put_batch"],
				"store.sync_s":                       st.total["store.sync"],
				"store.syncs":                        float64(st.count["store.sync"]),
				"store.close_s":                      st.total["store.close"],
				"store.blocks_cut":                   float64(reg.SumCounters("store_blocks_cut_total")),
				"store.block_encode_s":               hist("store_block_encode_seconds"),
				"store.block_compress_s":             hist("store_block_compress_seconds"),
			})
			return nil
		}
		m.untraced = append(m.untraced, wall)
		rates = append(rates, float64(cs.stats.Envelopes)/wall)
		lats = append(lats, cs.polls...)
		bytesPer = append(bytesPer, float64(size)/float64(cs.stats.Envelopes))
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.e2e = map[string]float64{
		"throughput_per_s": median(rates),
		"op_p75_us":        quantile(lats, 0.75) * 1e6,
		"op_p90_us":        quantile(lats, 0.90) * 1e6,
		"bytes_per_op":     median(bytesPer),
	}
	return m, nil
}

// verifyStore reopens a closed store and runs its own consistency
// check, returning the rows it verified.
func verifyStore(dir string) (int, error) {
	st, err := store.Open(dir, store.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return 0, err
	}
	n, err := st.Verify()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return n, err
}

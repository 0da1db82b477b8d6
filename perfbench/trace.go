package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// identityTolerance bounds the accounting identity of a traced pass:
// the layers' self times must sum to the root spans' wall time within
// this share of it. Self times of properly nested spans sum to the
// root exactly; the slack covers a server-side span that the client
// outlives by a few microseconds (the response reaches the client
// before the handler wrapper records its end).
const identityTolerance = 0.02

// spanCtx names a span as a parent; the zero value means "no parent",
// so the next span starts a new trace.
type spanCtx struct{ trace, id int64 }

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) key() string { return s.Layer + "." + s.Name }

// tracer keeps every span in memory; the run writes them out when it
// ends. Times are nanoseconds since the tracer was made.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is a span that has begun and not yet ended.
type active struct {
	t  *tracer
	sp span
}

// begin opens a span under parent. A nil tracer records nothing.
func (t *tracer) begin(parent spanCtx, layer, name string) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return &active{t: t, sp: span{
		ID: id, Parent: parent.id, Trace: trace, Layer: layer, Name: name,
		Start: time.Since(t.epoch).Nanoseconds(),
	}}
}

func (a *active) ctx() spanCtx {
	if a == nil {
		return spanCtx{}
	}
	return spanCtx{trace: a.sp.Trace, id: a.sp.ID}
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = time.Since(a.t.epoch).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.sp)
	a.t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// The span of a client call travels to the server in a request
// header, so the handler's span becomes the client span's child.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	if sc.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sc)
}

func (sc spanCtx) header() string {
	return strconv.FormatInt(sc.trace, 10) + "/" + strconv.FormatInt(sc.id, 10)
}

func parseSpanHeader(v string) spanCtx {
	tr, id, ok := strings.Cut(v, "/")
	if !ok {
		return spanCtx{}
	}
	t, err1 := strconv.ParseInt(tr, 10, 64)
	i, err2 := strconv.ParseInt(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanCtx{}
	}
	return spanCtx{trace: t, id: i}
}

// spanTransport stamps the caller's span onto outgoing requests.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if sc, ok := req.Context().Value(spanKey{}).(spanCtx); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, sc.header())
	}
	return t.base.RoundTrip(req)
}

// spanStats is what a set of spans says about the layers.
type spanStats struct {
	// total and count are summed span durations (seconds) and span
	// counts per "layer.name"; durs keeps each duration for quantiles.
	total map[string]float64
	count map[string]int
	durs  map[string][]float64
	// self is per-layer self time: span duration minus the part of it
	// its children cover.
	self map[string]float64
	// rootWall sums the root spans' durations; selfSum sums self
	// times over every span. They agree when the spans nest.
	rootWall, selfSum float64
}

func (s *spanStats) identityError() float64 {
	if s.rootWall == 0 {
		return 0
	}
	d := s.selfSum - s.rootWall
	if d < 0 {
		d = -d
	}
	return d / s.rootWall
}

// analyzeSpans computes per-name totals and per-layer self times.
func analyzeSpans(spans []span) *spanStats {
	st := &spanStats{
		total: map[string]float64{},
		count: map[string]int{},
		durs:  map[string][]float64{},
		self:  map[string]float64{},
	}
	children := map[int64][]*span{}
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for i := range spans {
		sp := &spans[i]
		dur := float64(sp.End-sp.Start) / 1e9
		k := sp.key()
		st.total[k] += dur
		st.count[k]++
		st.durs[k] = append(st.durs[k], dur)
		self := dur - coverage(sp, children[sp.ID])
		st.self[sp.Layer] += self
		st.selfSum += self
		if sp.Parent == 0 {
			st.rootWall += dur
		}
	}
	return st
}

// coverage is the length (seconds) of the union of the children's
// intervals, clipped to the parent's.
func coverage(parent *span, kids []*span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	var curA, curB int64 = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return float64(covered) / 1e9
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

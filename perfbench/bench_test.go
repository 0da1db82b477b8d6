package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// small are sizes that finish in seconds; the workloads keep their
// shape (poll step, lookup skew, op mix) at these sizes.
var small = map[string]sizes{
	"collect": {samples: 300, pollStep: 2 * week},
	"analyze": {samples: 600, pollStep: 2 * week, lookups: 800},
	"serve":   {samples: 500, rate: 200},
}

func smallRun(t *testing.T, workload string, trace bool, delay map[string]time.Duration) (*result, *run) {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 0.1, trace: trace,
		workdir: t.TempDir(), spans: t.TempDir(), sizes: small[workload], delay: delay,
	}
	if workload == "serve" {
		cfg.seconds = 1
	}
	res, r, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct %v, %d of %d failed", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res, r
}

// TestWorkloadsSmall runs every workload untraced and traced at small
// sizes: each must pass its output checks and print every metric.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range []string{"collect", "analyze", "serve"} {
		res, _ := smallRun(t, w, false, nil)
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w, d.name, m, ok, d.unit)
			}
		}
		res, _ = smallRun(t, w, true, nil)
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", w, d.name, m, ok, d.unit)
			}
		}
		if e := res.Metrics["trace.identity_error"].Value; e > identityTolerance {
			t.Errorf("%s: accounting identity off by %.4f", w, e)
		}
	}
}

// TestAttribution injects a delay into the benchmark's wrapper around
// store.Get. The trace must charge it to store.get_busy_s, the lookup
// latency must cross its bound, and the workloads that make no Get
// call must never meet the delay.
func TestAttribution(t *testing.T) {
	const delay = 500 * time.Microsecond
	inject := map[string]time.Duration{"store.get": delay}
	bounds := benchmarkBounds(t)

	base, _ := smallRun(t, "analyze", false, nil)
	slow, r := smallRun(t, "analyze", false, inject)
	if r.injected.Load() == 0 {
		t.Fatal("analyze: the delay never fired")
	}
	b, s := base.Metrics["op_p75_us"].Value, slow.Metrics["op_p75_us"].Value
	if s <= b*(1+bounds["op_p75_us"]) {
		t.Errorf("op_p75_us %.1f -> %.1f with a %v Get delay: does not cross its bound %.2f", b, s, delay, bounds["op_p75_us"])
	}

	tbase, _ := smallRun(t, "analyze", true, nil)
	tslow, _ := smallRun(t, "analyze", true, inject)
	gets := tslow.Metrics["store.gets"].Value
	added := tslow.Metrics["store.get_busy_s"].Value - tbase.Metrics["store.get_busy_s"].Value
	if want := 0.9 * gets * delay.Seconds(); added < want {
		t.Errorf("store.get_busy_s grew by %.4fs over %v gets; want at least %.4fs", added, gets, want)
	}
	for _, k := range []string{"store.scan_census_s", "core.series_s"} {
		if d := tslow.Metrics[k].Value - tbase.Metrics[k].Value; d > 0.5*added {
			t.Errorf("%s grew by %.4fs: the Get delay leaked into another span", k, d)
		}
	}

	for _, w := range []string{"collect", "serve"} {
		_, r := smallRun(t, w, false, inject)
		if n := r.injected.Load(); n != 0 {
			t.Errorf("%s: the store.Get delay fired %d times", w, n)
		}
		res, _ := smallRun(t, w, true, inject)
		if g := res.Metrics["store.gets"].Value; g != 0 {
			t.Errorf("%s: traced run made %v store.Get calls", w, g)
		}
	}
}

type benchJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func benchmarkBounds(t *testing.T) map[string]float64 {
	out := map[string]float64{}
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's names and units in
// step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if _, ok := defaultSizes[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program prints %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, program prints %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

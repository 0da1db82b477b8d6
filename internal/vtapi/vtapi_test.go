package vtapi_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/ftypes"
	"vtdynamics/internal/report"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
	"vtdynamics/internal/vtsim"
)

// setup starts an httptest server over a fresh simulated service and
// returns a typed client plus the virtual clock.
func setup(t *testing.T) (*vtclient.Client, *simclock.SimClock) {
	t.Helper()
	set, err := engine.NewSet(engine.DefaultRoster(), 42,
		simclock.CollectionStart, simclock.CollectionEnd)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(simclock.CollectionStart)
	svc := vtsim.NewService(set, clock)
	srv := httptest.NewServer(vtapi.NewServer(svc, nil))
	t.Cleanup(srv.Close)
	return vtclient.New(srv.URL), clock
}

func desc(sha string) vtapi.UploadDescriptor {
	return vtapi.UploadDescriptor{
		SHA256:        sha,
		FileType:      ftypes.Win32EXE,
		Size:          2048,
		Malicious:     true,
		Detectability: 0.9,
	}
}

func TestUploadOverHTTP(t *testing.T) {
	client, _ := setup(t)
	env, err := client.Upload(context.Background(), desc("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if env.Meta.SHA256 != "u1" || env.Meta.TimesSubmitted != 1 {
		t.Fatalf("meta = %+v", env.Meta)
	}
	if err := env.Scan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(env.Scan.Results) < 70 {
		t.Fatalf("engine results = %d", len(env.Scan.Results))
	}
}

// TestTable1OverHTTP exercises the API-semantics experiment end to
// end over real HTTP: the three endpoints must follow the Table 1
// update rules.
func TestTable1OverHTTP(t *testing.T) {
	client, clock := setup(t)
	ctx := context.Background()
	first, err := client.Upload(ctx, desc("t1"))
	if err != nil {
		t.Fatal(err)
	}

	clock.Advance(24 * time.Hour)
	rescanned, err := client.Rescan(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if !rescanned.Meta.LastAnalysisDate.After(first.Meta.LastAnalysisDate) {
		t.Fatal("rescan: last_analysis_date not updated")
	}
	if !rescanned.Meta.LastSubmissionDate.Equal(first.Meta.LastSubmissionDate) {
		t.Fatal("rescan: last_submission_date changed")
	}
	if rescanned.Meta.TimesSubmitted != first.Meta.TimesSubmitted {
		t.Fatal("rescan: times_submitted changed")
	}

	clock.Advance(24 * time.Hour)
	reported, err := client.Report(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if !reported.Meta.LastAnalysisDate.Equal(rescanned.Meta.LastAnalysisDate) {
		t.Fatal("report: last_analysis_date changed")
	}

	clock.Advance(24 * time.Hour)
	reuploaded, err := client.Upload(ctx, desc("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if reuploaded.Meta.TimesSubmitted != 2 {
		t.Fatalf("upload: times_submitted = %d, want 2", reuploaded.Meta.TimesSubmitted)
	}
	if !reuploaded.Meta.LastSubmissionDate.After(first.Meta.LastSubmissionDate) {
		t.Fatal("upload: last_submission_date not updated")
	}
}

func TestReportNotFound(t *testing.T) {
	client, _ := setup(t)
	_, err := client.Report(context.Background(), "missing")
	if !errors.Is(err, vtclient.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	_, err = client.Rescan(context.Background(), "missing")
	if !errors.Is(err, vtclient.ErrNotFound) {
		t.Fatalf("rescan err = %v, want ErrNotFound", err)
	}
}

func TestUploadValidation(t *testing.T) {
	client, _ := setup(t)
	_, err := client.Upload(context.Background(), vtapi.UploadDescriptor{})
	if err == nil || errors.Is(err, vtclient.ErrNotFound) {
		t.Fatalf("err = %v, want 400-class error", err)
	}
}

func TestFeedOverHTTP(t *testing.T) {
	client, clock := setup(t)
	ctx := context.Background()
	t0 := clock.Now()
	for i, sha := range []string{"f1", "f2", "f3"} {
		if _, err := client.Upload(ctx, desc(sha)); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		clock.Advance(30 * time.Second)
	}
	envs, err := client.FeedBetween(ctx, t0, clock.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 3 {
		t.Fatalf("feed = %d envelopes", len(envs))
	}
	for _, env := range envs {
		if err := env.Scan.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Empty window.
	empty, err := client.FeedBetween(ctx, t0.Add(-time.Hour), t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty window returned %d", len(empty))
	}
	// The paged read caps the response at the window's prefix.
	page, err := client.FeedBetweenLimit(ctx, t0, clock.Now().Add(time.Second), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Meta.SHA256 != envs[0].Meta.SHA256 {
		t.Fatalf("limit 2 page = %d envelopes", len(page))
	}
}

func TestFeedBadParams(t *testing.T) {
	set, _ := engine.NewSet(engine.DefaultRoster(), 42,
		simclock.CollectionStart, simclock.CollectionEnd)
	svc := vtsim.NewService(set, simclock.NewSim(simclock.CollectionStart))
	srv := httptest.NewServer(vtapi.NewServer(svc, nil))
	defer srv.Close()

	for _, q := range []string{"", "?from=10", "?from=20&to=10", "?from=x&to=y",
		"?from=10&to=20&limit=0", "?from=10&to=20&limit=-1", "?from=10&to=20&limit=x"} {
		resp, err := http.Get(srv.URL + "/api/v3/feed/reports" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: status = %d", q, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	set, _ := engine.NewSet(engine.DefaultRoster(), 42,
		simclock.CollectionStart, simclock.CollectionEnd)
	svc := vtsim.NewService(set, simclock.NewSim(simclock.CollectionStart))
	srv := httptest.NewServer(vtapi.NewServer(svc, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestMalformedUploadBody(t *testing.T) {
	set, _ := engine.NewSet(engine.DefaultRoster(), 42,
		simclock.CollectionStart, simclock.CollectionEnd)
	svc := vtsim.NewService(set, simclock.NewSim(simclock.CollectionStart))
	srv := httptest.NewServer(vtapi.NewServer(svc, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/v3/files", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestOversizeUploadBody: the upload handler reads at most 64 KiB of
// body and answers anything longer with 413, while a descriptor of
// ordinary size still uploads.
func TestOversizeUploadBody(t *testing.T) {
	set, _ := engine.NewSet(engine.DefaultRoster(), 42,
		simclock.CollectionStart, simclock.CollectionEnd)
	svc := vtsim.NewService(set, simclock.NewSim(simclock.CollectionStart))
	srv := httptest.NewServer(vtapi.NewServer(svc, nil))
	defer srv.Close()
	for _, tc := range []struct {
		name string
		pad  int
		want int
	}{
		{"ordinary", 1 << 10, http.StatusOK},
		{"oversize", 64 << 10, http.StatusRequestEntityTooLarge},
	} {
		body := `{"sha256":"big","file_type":"PDF","size":1,"detectability":0.5,"pad":"` +
			strings.Repeat("x", tc.pad) + `"}`
		resp, err := http.Post(srv.URL+"/api/v3/files", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s body: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestWireFormatFields(t *testing.T) {
	// The decoded envelope must preserve engine verdict categories —
	// guard against wire-format drift.
	client, _ := setup(t)
	env, err := client.Upload(context.Background(), desc("wire"))
	if err != nil {
		t.Fatal(err)
	}
	var mal, ben, und int
	for _, er := range env.Scan.Results {
		switch er.Verdict {
		case report.Malicious:
			mal++
		case report.Benign:
			ben++
		default:
			und++
		}
	}
	if mal != env.Scan.AVRank {
		t.Fatalf("AVRank %d != malicious verdicts %d", env.Scan.AVRank, mal)
	}
	if mal+ben != env.Scan.EnginesTotal {
		t.Fatalf("EnginesTotal mismatch: %d vs %d", env.Scan.EnginesTotal, mal+ben)
	}
}

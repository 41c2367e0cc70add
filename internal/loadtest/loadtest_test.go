package loadtest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"prism/api"
	"prism/client"
	"prism/internal/dataset"
	"prism/internal/serve"
	"prism/internal/server"
)

// testBackend boots an in-process server over a reduced Mondial instance.
func testBackend(t *testing.T, admission serve.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	s := server.New()
	s.TimeLimit = 30 * time.Second
	s.Admission = admission
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 9, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		Lakes: 20, Rivers: 10, Mountains: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDatabase("mondial", db)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s
}

func paperRequest() api.DiscoverRequest {
	return api.DiscoverRequest{
		Database:   "mondial",
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}
}

// checkGoroutines fails the test if the goroutine count does not return
// to (roughly) its pre-test level — the leak check wrapping the smoke
// profiles.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSmokeProfile runs one uncontended profile end to end: every round
// completes, nothing is shed, latency is recorded per class — and no
// goroutines leak once the server is gone.
func TestSmokeProfile(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, _ := testBackend(t, serve.Config{})
	httpc := &http.Client{}
	p, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Concurrency: 4,
		Rounds:      20,
		Mix:         CanonicalMixes()[0],
		Request:     paperRequest(),
		HTTPClient:  httpc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Completed != 20 || p.Shed != 0 || p.Failed != 0 {
		t.Fatalf("profile = %+v, want 20 completed, 0 shed, 0 failed", p)
	}
	if p.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", p.ThroughputRPS)
	}
	if len(p.Latency) != 2 {
		t.Fatalf("latency classes = %d, want 2 (interactive, batch)", len(p.Latency))
	}
	for _, l := range p.Latency {
		if l.Count == 0 || l.P50Ms <= 0 || l.P99Ms < l.P50Ms {
			t.Errorf("latency %+v implausible", l)
		}
	}
	httpc.CloseIdleConnections()
	srv.Close()
	checkGoroutines(t, before)
}

// TestOverloadShedsAndIsolates pins the overload contract end to end:
// with a one-slot budget and a one-deep queue, a concurrent profile gets
// part of its traffic shed as 429s (counted as shed, not failed), the
// rest completes, the server's own shed counter agrees with the client's
// view, and interactive rounds that did run stayed within the queueing
// bound.
func TestOverloadShedsAndIsolates(t *testing.T) {
	srv, _ := testBackend(t, serve.Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  250 * time.Millisecond,
	})
	p, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Concurrency: 8,
		Rounds:      40,
		Mix:         CanonicalMixes()[0],
		Request:     paperRequest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shed == 0 {
		t.Fatalf("profile = %+v, want shedding under a one-slot budget", p)
	}
	if p.Completed == 0 {
		t.Fatalf("profile = %+v, want some completed rounds", p)
	}
	if p.Failed != 0 {
		t.Fatalf("profile = %+v: shed rounds must surface as shed, not failures", p)
	}
	if p.Completed+p.Shed != p.Rounds {
		t.Fatalf("accounting broken: %+v", p)
	}
	if p.ShedRate <= 0 || p.ShedRate >= 1 {
		t.Errorf("shed rate = %v, want in (0, 1)", p.ShedRate)
	}
	// Admitted interactive rounds are bounded by round time + queue wait:
	// generous cap, but a regression to unbounded queueing blows past it.
	for _, l := range p.Latency {
		if l.Priority == api.PriorityInteractive && l.P99Ms > 10_000 {
			t.Errorf("interactive p99 = %vms, want bounded under overload", l.P99Ms)
		}
	}

	// The server's own accounting agrees with the client-observed counts.
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Shed != int64(p.Shed) {
		t.Errorf("server shed = %d, client observed %d", stats.Admission.Shed, p.Shed)
	}
	if stats.Admission.Admitted != int64(p.Completed) {
		t.Errorf("server admitted = %d, client completed %d", stats.Admission.Admitted, p.Completed)
	}
}

// TestRetryRidesThroughOverload pins that a retrying profile converts
// shed rounds into completed ones: with the same one-slot budget but a
// client-side retry budget, every round eventually completes.
func TestRetryRidesThroughOverload(t *testing.T) {
	srv, _ := testBackend(t, serve.Config{
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueTimeout:  2 * time.Second,
	})
	p, err := Run(context.Background(), Config{
		BaseURL:       srv.URL,
		Concurrency:   6,
		Rounds:        12,
		Mix:           CanonicalMixes()[1],
		Request:       paperRequest(),
		RetryAttempts: 8,
		RetryBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Completed != p.Rounds {
		t.Fatalf("profile = %+v, want all rounds completed via retries", p)
	}
}

// TestMixSchedule pins the deterministic proportional interleave.
func TestMixSchedule(t *testing.T) {
	m := Mix{Name: "t", Weights: map[string]int{"interactive": 4, "batch": 1}}
	got := m.schedule()
	if len(got) != 5 {
		t.Fatalf("schedule = %v", got)
	}
	counts := map[string]int{}
	for _, cls := range got {
		counts[cls]++
	}
	if counts["interactive"] != 4 || counts["batch"] != 1 {
		t.Errorf("schedule %v does not honour weights", got)
	}
	// Deterministic: same mix, same sequence.
	for i, cls := range m.schedule() {
		if got[i] != cls {
			t.Fatalf("schedule not deterministic: %v vs %v", got, m.schedule())
		}
	}
}

// TestLoadTrajectoryGuard keeps the checked-in BENCH_load.json honest:
// it must parse, cover the full >= 2 × 2 grid with consistent
// accounting, and carry the server's stats snapshot (regenerate with:
// go run ./cmd/prism-loadtest -out BENCH_load.json).
func TestLoadTrajectoryGuard(t *testing.T) {
	traj, err := ReadTrajectory("../../BENCH_load.json")
	if err != nil {
		t.Fatalf("BENCH_load.json missing or unreadable (regenerate with: go run ./cmd/prism-loadtest): %v", err)
	}
	if err := traj.Validate(); err != nil {
		t.Fatalf("BENCH_load.json stale: %v (regenerate with: go run ./cmd/prism-loadtest)", err)
	}
	if traj.ServerStats == nil {
		t.Fatal("BENCH_load.json has no server stats snapshot")
	}
	var want int64
	for _, p := range traj.Profiles {
		want += int64(p.Completed)
	}
	if traj.ServerStats.Admission.Admitted < want {
		t.Errorf("server admitted %d < %d completed rounds recorded in profiles",
			traj.ServerStats.Admission.Admitted, want)
	}
}

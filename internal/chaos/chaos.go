// Package chaos is the fault-matrix differential suite for the serving
// stack. Its tests (run under -race in the chaos-smoke CI leg) sweep
// every registered fault point — and seeded random combinations — while
// a live server answers traffic, asserting the robustness invariants:
//
//   - only structured (*api.Error with a code) or typed errors escape;
//   - a poisoned round never takes the process, worker pool, or a
//     concurrent healthy round with it;
//   - goroutines return to baseline after every sweep (no leaks);
//   - with every point disarmed, mapping sets are byte-identical to the
//     pre-sweep baseline (faults leave no residue).
//
// The package itself holds only the test harness helpers; everything of
// substance is in the _test files.
package chaos

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"prism/api"
	"prism/client"
	"prism/internal/dataset"
	"prism/internal/server"
)

// Stack is one live serving stack under chaos: a real HTTP server over
// a reduced Mondial plus a client pointed at it.
type Stack struct {
	Srv *httptest.Server
	C   *client.Client
}

// NewStack boots the stack. The dataset is the same reduced Mondial the
// client equivalence tests use, so rounds are fast but non-trivial.
func NewStack(t testing.TB) *Stack {
	t.Helper()
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 9, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		Lakes: 20, Rivers: 10, Mountains: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	s.TimeLimit = 30 * time.Second
	s.RegisterDatabase("mondial", db)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	stack := &Stack{Srv: srv}
	stack.C = stack.NewClient(t)
	return stack
}

// NewClient returns a client for the stack. Keep-alives are disabled so
// every exchange runs on a fresh connection: faults routinely kill
// connections mid-exchange, and a poisoned pooled connection would leak
// transport errors into the next subtest — exactly the unstructured
// failures the suite asserts cannot happen. It also keeps the server's
// per-connection goroutines out of the leak baselines.
func (s *Stack) NewClient(t testing.TB, opts ...client.Option) *client.Client {
	t.Helper()
	httpc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	opts = append([]client.Option{client.WithHTTPClient(httpc)}, opts...)
	c, err := client.New(s.Srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Request is the standard paper-grid discovery round the suite poisons.
func Request() api.DiscoverRequest {
	return api.DiscoverRequest{
		Database:   "mondial",
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}
}

// CheckGoroutines snapshots the goroutine count and returns a check to
// defer: it fails t unless the count settles back to the baseline (plus
// a small slack for runtime and idle-connection residue) within the
// wait budget. Call the returned func after disarming faults and
// closing idle connections.
func CheckGoroutines(t testing.TB, wait time.Duration) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		const slack = 4
		deadline := time.Now().Add(wait)
		n := runtime.NumGoroutine()
		for n > before+slack && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before+slack {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before, %d after settling\n%s", before, n, buf)
		}
	}
}

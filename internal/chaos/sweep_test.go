package chaos

// The fault-matrix sweep: every registered fault point armed in turn
// (error mode for all, panic mode for the points on the request path),
// plus seeded random combinations, against one live serving stack.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prism"
	"prism/api"
	"prism/client"
	"prism/internal/fault"
)

// catalog is the fault-point catalog this PR ships, pinned so that
// docs/robustness.md and the sweep space cannot drift silently: adding
// a point means updating the doc and this list together.
var catalog = []string{
	"colexec.exec",
	"colexec.scan",
	"dataset.csv.read",
	"dataset.open",
	"dataset.sqlite.read",
	"discovery.round",
	"sched.validate",
	"serve.admit",
	"serve.sink.write",
	"server.handler",
	"server.stream.cut",
	"snapshot.decode",
	"snapshot.encode",
	"snapshot.rename",
	"snapshot.sync",
}

func TestFaultPointCatalog(t *testing.T) {
	got := fault.Names()
	if len(got) != len(catalog) {
		t.Fatalf("registered fault points = %v, want the documented catalog %v", got, catalog)
	}
	for i, name := range catalog {
		if got[i] != name {
			t.Fatalf("fault point %d = %q, want %q (full set %v)", i, got[i], name, got)
		}
	}
}

// assertStructured fails unless err is a structured *api.Error carrying
// a code, or one of the typed client sentinels.
func assertStructured(t *testing.T, point string, err error) {
	t.Helper()
	var apiErr *api.Error
	switch {
	case errors.As(err, &apiErr):
		if apiErr.Code == "" {
			t.Fatalf("point %s: structured error without a code: %v", point, apiErr)
		}
	case errors.Is(err, client.ErrStreamTruncated):
	case errors.Is(err, prism.ErrInternal):
	default:
		t.Fatalf("point %s: unstructured error escaped: %T %v", point, err, err)
	}
}

// baseline runs one healthy round and returns its mapping set as JSON
// bytes — the equivalence reference the sweeps must restore.
func baseline(t *testing.T, c *client.Client) []byte {
	t.Helper()
	resp, err := c.Discover(context.Background(), Request())
	if err != nil {
		t.Fatalf("healthy round failed: %v", err)
	}
	if len(resp.Mappings) == 0 {
		t.Fatal("healthy round found no mappings")
	}
	raw, err := json.Marshal(resp.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func assertEqualsBaseline(t *testing.T, c *client.Client, want []byte, when string) {
	t.Helper()
	resp, err := c.Discover(context.Background(), Request())
	if err != nil {
		t.Fatalf("%s: healthy round failed: %v", when, err)
	}
	got, err := json.Marshal(resp.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s: mapping set diverged from baseline\n got: %s\nwant: %s", when, got, want)
	}
}

// streamPoints are only exercised on the NDJSON streaming path.
var streamPoints = map[string]bool{
	"serve.sink.write":  true,
	"server.stream.cut": true,
}

// TestErrorModeSweep arms every registered point with an error plan in
// turn: whatever the poisoned round reports must be structured or
// typed, the server must keep answering, and after disarming the
// mapping set must be byte-identical to the pre-sweep baseline.
func TestErrorModeSweep(t *testing.T) {
	stack := NewStack(t)
	ctx := context.Background()
	want := baseline(t, stack.C)

	for _, point := range fault.Names() {
		t.Run(point, func(t *testing.T) {
			check := CheckGoroutines(t, 5*time.Second)
			if err := fault.Arm(point, fault.Injection{Mode: fault.ModeError}); err != nil {
				t.Fatal(err)
			}
			defer fault.DisarmAll()

			if streamPoints[point] {
				events, err := stack.C.DiscoverStream(ctx, Request())
				if err != nil {
					assertStructured(t, point, err)
				} else {
					for ev := range events {
						if ev.Err != nil {
							assertStructured(t, point, ev.Err)
						}
					}
				}
			} else if _, err := stack.C.Discover(ctx, Request()); err != nil {
				assertStructured(t, point, err)
			}

			// The process must still answer. With the handler point armed
			// the probe itself fails — but it must fail structured.
			if err := stack.C.Healthz(ctx); err != nil {
				if point != "server.handler" {
					t.Fatalf("healthz failed with %s armed: %v", point, err)
				}
				assertStructured(t, point, err)
			}

			fault.DisarmAll()
			assertEqualsBaseline(t, stack.C, want, "after disarming "+point)
			check()
		})
	}
	assertEqualsBaseline(t, stack.C, want, "after the full sweep")
}

// panicPoints are the points a discovery round or its HTTP exchange is
// guaranteed to pass through, each behind a panic-isolation seam; mustFire
// marks the ones whose firing the sweep asserts (the colexec points
// depend on the plan shapes the round happens to validate).
var panicPoints = []struct {
	name     string
	mustFire bool
}{
	{"server.handler", true},
	{"serve.admit", true},
	{"discovery.round", true},
	{"sched.validate", true},
	{"colexec.exec", false},
	{"colexec.scan", false},
}

// TestPanicModeSweep arms each request-path point to panic once: the
// poisoned round must fail with the structured internal error, the
// process must survive, and the next round must match the baseline.
func TestPanicModeSweep(t *testing.T) {
	stack := NewStack(t)
	ctx := context.Background()
	want := baseline(t, stack.C)

	for _, pp := range panicPoints {
		t.Run(pp.name, func(t *testing.T) {
			check := CheckGoroutines(t, 5*time.Second)
			if err := fault.Arm(pp.name, fault.Injection{Mode: fault.ModePanic, Count: 1}); err != nil {
				t.Fatal(err)
			}
			defer fault.DisarmAll()

			_, err := stack.C.Discover(ctx, Request())
			fired := fault.Lookup(pp.name).Fired()
			if pp.mustFire && fired == 0 {
				t.Fatalf("point %s never fired during a discover round", pp.name)
			}
			if fired > 0 {
				if err == nil {
					t.Fatalf("point %s panicked but the round reported success", pp.name)
				}
				var apiErr *api.Error
				if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInternal {
					t.Fatalf("point %s: panic surfaced as %v, want structured code %q",
						pp.name, err, api.CodeInternal)
				}
				if !errors.Is(err, prism.ErrInternal) {
					t.Fatalf("point %s: structured internal error does not unwrap to prism.ErrInternal", pp.name)
				}
			}

			// The panic was isolated: the process still serves.
			if err := stack.C.Healthz(ctx); err != nil {
				t.Fatalf("process unhealthy after isolated panic at %s: %v", pp.name, err)
			}
			fault.DisarmAll()
			assertEqualsBaseline(t, stack.C, want, "after panic at "+pp.name)
			check()
		})
	}
}

// TestSeededRandomCombinations arms random subsets of the catalog with
// probabilistic plans (deterministic per seed) and fires a burst of
// rounds: every failure must be structured or typed, and disarming must
// restore the baseline exactly.
func TestSeededRandomCombinations(t *testing.T) {
	stack := NewStack(t)
	ctx := context.Background()
	want := baseline(t, stack.C)
	names := fault.Names()

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			check := CheckGoroutines(t, 5*time.Second)
			rng := rand.New(rand.NewSource(seed))
			armed := map[string]bool{}
			for len(armed) < 3 {
				name := names[rng.Intn(len(names))]
				if armed[name] {
					continue
				}
				armed[name] = true
				if err := fault.Arm(name, fault.Injection{
					Mode: fault.ModeError, Prob: 0.4, Seed: rng.Uint64(),
				}); err != nil {
					t.Fatal(err)
				}
			}
			defer fault.DisarmAll()

			for i := 0; i < 4; i++ {
				if _, err := stack.C.Discover(ctx, Request()); err != nil {
					assertStructured(t, fmt.Sprintf("combo %v round %d", fault.Armed(), i), err)
				}
			}
			fault.DisarmAll()
			assertEqualsBaseline(t, stack.C, want, "after random combination")
			check()
		})
	}
}

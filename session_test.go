package prism

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tinyMondial keeps session tests fast.
func tinyMondial() MondialConfig {
	return MondialConfig{
		Seed: 11, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 30, Rivers: 15, Mountains: 10,
	}
}

func sessionEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := Open("mondial", WithMondialConfig(tinyMondial()))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sessionSpec(t testing.TB) *Spec {
	t.Helper()
	spec, err := ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func sqlSet(r *Report) []string {
	out := make([]string, 0, len(r.Mappings))
	for _, m := range r.Mappings {
		out = append(out, m.SQL)
	}
	return out
}

func TestSessionRefineLoop(t *testing.T) {
	eng := sessionEngine(t)
	sess := eng.NewSession(context.Background())
	defer sess.Close()

	opts := Options{IncludeResults: true, ResultLimit: 5}
	cold, err := sess.Discover(context.Background(), sessionSpec(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Mappings) == 0 || cold.Validations == 0 {
		t.Fatalf("cold round too weak: %s", cold.Summary())
	}

	// Refine: constrain the Area column, then relax it again. Both rounds
	// must reuse the text-column outcomes; the relaxation round returns to
	// the original constraints and should validate nothing at all.
	warm, err := sess.Refine(context.Background(),
		Delta{UpdateCells: []CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits == 0 || warm.Validations >= cold.Validations {
		t.Errorf("refined round: validations=%d (cold %d), cache=%+v — expected reuse",
			warm.Validations, cold.Validations, warm.Cache)
	}
	back, err := sess.Refine(context.Background(),
		Delta{UpdateCells: []CellUpdate{{Row: 0, Col: 2, Cell: ""}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if back.Validations != 0 {
		t.Errorf("returning to known constraints executed %d validations, want 0", back.Validations)
	}
	coldSQL, backSQL := sqlSet(cold), sqlSet(back)
	if len(coldSQL) != len(backSQL) {
		t.Fatalf("mapping sets differ: %v vs %v", coldSQL, backSQL)
	}
	for i := range coldSQL {
		if coldSQL[i] != backSQL[i] {
			t.Fatalf("mapping %d differs: %q vs %q", i, coldSQL[i], backSQL[i])
		}
	}
	// Replaying the cold specification on the warm session is pure cache.
	replay, err := sess.Discover(context.Background(), sessionSpec(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Validations != 0 {
		t.Errorf("replay executed %d validations, want 0", replay.Validations)
	}
	// Over the warm rounds the cache absorbs at least half of the
	// validations the rounds would otherwise have run.
	hits, misses := 0, 0
	for _, r := range []*Report{warm, back, replay} {
		hits += r.Cache.Hits
		misses += r.Cache.Misses
	}
	if saved := float64(hits) / float64(hits+misses); saved < 0.5 {
		t.Errorf("cache absorbed %.0f%% of warm-round validations (%d hits, %d misses), want >= 50%%",
			saved*100, hits, misses)
	}
	if sess.Rounds() != 4 {
		t.Errorf("Rounds() = %d, want 4", sess.Rounds())
	}
	// The lifetime counters are the sums of the rounds' counters: a probe
	// that finds nothing is not a miss, an executed validation is.
	var sum CacheCounters
	for _, r := range []*Report{cold, warm, back, replay} {
		sum.Hits += r.Cache.Hits
		sum.Misses += r.Cache.Misses
		sum.Stores += r.Cache.Stores
	}
	if st := sess.CacheStats(); st.Hits != sum.Hits || st.Misses != sum.Misses || st.Stores != sum.Stores {
		t.Errorf("lifetime cache stats = %+v, want the rounds' sums %+v", st, sum)
	}
}

func TestSessionClosesWithContext(t *testing.T) {
	eng := sessionEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	sess := eng.NewSession(ctx)
	if _, err := sess.Discover(context.Background(), sessionSpec(t), Options{}); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := sess.Discover(context.Background(), sessionSpec(t), Options{}); err != nil {
			break // the watcher closed the session
		}
		if time.Now().After(deadline) {
			t.Fatal("session did not close after its context was cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegistryConcurrentOpenAndSessionRounds is the registry/session
// concurrency gate: N goroutines Get the same engine name while M run
// session rounds. The engine must be built exactly once (the registry's
// singleflight), and session caches must not cross-talk — a fresh session
// starts cold no matter how warm every other session already is.
func TestRegistryConcurrentOpenAndSessionRounds(t *testing.T) {
	reg := NewRegistry()
	var builds atomic.Int32
	reg.RegisterOpener("shared", func() (*Engine, error) {
		builds.Add(1)
		return Open("mondial", WithMondialConfig(tinyMondial()))
	})

	const getters, sessions = 16, 4
	var wg sync.WaitGroup
	engines := make([]*Engine, getters)
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng, err := reg.Get("shared")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			engines[g] = eng
		}(g)
	}
	warmHits := make([]CacheCounters, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng, err := reg.Get("shared")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			sess := eng.NewSession(context.Background())
			defer sess.Close()
			cold, err := sess.Discover(context.Background(), sessionSpec(t), Options{})
			if err != nil {
				t.Errorf("session %d cold round: %v", s, err)
				return
			}
			// Each session warms only itself: its cold round must not see
			// hits from the other sessions' rounds.
			if cold.Cache.Hits != 0 {
				t.Errorf("session %d cold round had %d hits — cache cross-talk between sessions", s, cold.Cache.Hits)
			}
			warm, err := sess.Discover(context.Background(), sessionSpec(t), Options{})
			if err != nil {
				t.Errorf("session %d warm round: %v", s, err)
				return
			}
			warmHits[s] = warm.Cache
		}(s)
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Errorf("engine built %d times, want exactly 1", n)
	}
	for g := 1; g < getters; g++ {
		if engines[g] != engines[0] {
			t.Fatalf("getter %d received a different engine instance", g)
		}
	}
	for s, c := range warmHits {
		if c.Hits == 0 {
			t.Errorf("session %d warm round had no hits: %+v", s, c)
		}
	}
}

package discovery

import (
	"context"
	"sync"
	"testing"

	"prism/internal/constraint"
)

// sessionOpts keeps session-round tests deterministic: sequential
// validation so executed-validation counts are exact, result previews on so
// mapping equivalence covers rows too.
func sessionOpts() Options {
	return Options{IncludeResults: true, ResultLimit: 5}
}

// mappingDigest reduces a report to what refined rounds must reproduce
// byte-identically: the mapping SQL in order plus every preview row.
func mappingDigest(r *Report) string {
	out := ""
	for _, m := range r.Mappings {
		out += m.SQL + "\n"
		if m.Result != nil {
			for _, row := range m.Result.Rows {
				out += "  " + row.Key() + "\n"
			}
		}
	}
	return out
}

func TestSessionWarmRoundSkipsAllValidations(t *testing.T) {
	eng := NewEngine(smallMondial(t))
	sess := eng.NewSession()
	spec := paperSpec(t)

	cold, err := sess.Discover(context.Background(), spec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Validations == 0 || len(cold.Mappings) == 0 {
		t.Fatalf("cold round too weak: %s", cold.Summary())
	}
	// Every validation is written back, and nothing else.
	if cold.Cache.Hits != 0 || cold.Cache.Stores != cold.Validations {
		t.Errorf("cold round cache counters = %+v (validations %d)", cold.Cache, cold.Validations)
	}

	// The identical specification again: every outcome is cached.
	warm, err := sess.Discover(context.Background(), spec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Validations != 0 {
		t.Errorf("warm round executed %d validations, want 0", warm.Validations)
	}
	if warm.Cache.Hits == 0 {
		t.Error("warm round should report cache hits")
	}
	if mappingDigest(warm) != mappingDigest(cold) {
		t.Errorf("warm mapping set diverges:\n--- cold ---\n%s--- warm ---\n%s",
			mappingDigest(cold), mappingDigest(warm))
	}
	// A round that validates nothing writes nothing back, however often it
	// repeats.
	again, err := sess.Discover(context.Background(), spec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	for round, r := range []*Report{warm, again} {
		if r.Validations != 0 || r.Cache.Stores != 0 || r.Cache.Misses != 0 {
			t.Errorf("warm round %d: %d validations, cache counters %+v; want nothing validated or stored", round+2, r.Validations, r.Cache)
		}
	}
	if sess.Rounds() != 3 {
		t.Errorf("Rounds() = %d, want 3", sess.Rounds())
	}
}

func TestSessionRefineValidatesOnlyTheDelta(t *testing.T) {
	eng := NewEngine(smallMondial(t))
	sess := eng.NewSession()
	spec := paperSpec(t)

	cold, err := sess.Discover(context.Background(), spec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Refine the Area column — the two text columns keep their filters'
	// cache keys, so the warm round must validate strictly fewer filters.
	delta := constraint.Delta{UpdateCells: []constraint.CellUpdate{{Row: 0, Col: 2, Cell: "[400, 600]"}}}
	warm, err := sess.Refine(context.Background(), delta, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits == 0 {
		t.Fatal("refined round reused nothing — the cache key design is broken")
	}
	if warm.Validations >= cold.Validations {
		t.Errorf("refined round validated %d filters, cold validated %d — want strictly fewer",
			warm.Validations, cold.Validations)
	}
	if warm.Cache.Misses != warm.Validations {
		t.Errorf("misses %d != executed validations %d", warm.Cache.Misses, warm.Validations)
	}

	// The refined round must be byte-identical to a cold round over the
	// refined specification on a fresh engine.
	refinedSpec, err := delta.Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := NewEngine(smallMondial(t)).Discover(context.Background(), refinedSpec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if mappingDigest(warm) != mappingDigest(reference) {
		t.Errorf("refined session round diverges from cold reference:\n--- reference ---\n%s--- session ---\n%s",
			mappingDigest(reference), mappingDigest(warm))
	}
	if sess.Spec() == spec {
		t.Error("session spec should have advanced to the refined specification")
	}
}

func TestSessionCacheIsExecutorIndependent(t *testing.T) {
	db := smallMondial(t)
	sess := NewEngineOn(db, db).NewSession()
	spec := paperSpec(t)

	cold, err := sess.Discover(context.Background(), spec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Outcomes are ground truths of the database, not of the backend: the
	// session moved onto a columnar engine over the same database reuses
	// everything the reference engine established.
	sess.eng = NewEngine(db)
	warm, err := sess.Discover(context.Background(), spec, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Validations != 0 {
		t.Errorf("columnar round after mem round executed %d validations, want 0", warm.Validations)
	}
	if mappingDigest(warm) != mappingDigest(cold) {
		t.Error("mapping sets diverge across executors within one session")
	}
}

func TestSessionRefineErrors(t *testing.T) {
	eng := NewEngine(smallMondial(t))
	sess := eng.NewSession()

	if _, err := sess.Refine(context.Background(), constraint.Delta{}, Options{}); err == nil {
		t.Error("Refine before the first Discover should fail")
	}
	if _, err := sess.Discover(context.Background(), nil, Options{}); err == nil {
		t.Error("Discover with a nil spec should fail")
	}
	if _, err := sess.Discover(context.Background(), paperSpec(t), sessionOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Refine(context.Background(),
		constraint.Delta{RemoveSamples: []int{7}}, Options{}); err == nil {
		t.Error("an invalid delta should fail without running a round")
	}
	sess.Close()
	if _, err := sess.Discover(context.Background(), paperSpec(t), Options{}); err == nil {
		t.Error("rounds after Close should fail")
	}
	if _, err := sess.Refine(context.Background(), constraint.Delta{}, Options{}); err == nil {
		t.Error("Refine after Close should fail")
	}
}

func TestSessionConcurrentRounds(t *testing.T) {
	eng := NewEngine(smallMondial(t))
	sess := eng.NewSession()
	spec := paperSpec(t)
	if _, err := sess.Discover(context.Background(), spec, sessionOpts()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			report, err := sess.Discover(context.Background(), spec, sessionOpts())
			if err != nil {
				t.Errorf("concurrent round: %v", err)
				return
			}
			if report.Validations != 0 {
				t.Errorf("concurrent warm round executed %d validations", report.Validations)
			}
		}()
	}
	wg.Wait()
}

// TestSessionSetCacheKeysOnConstrainedTargets refines away the last
// constraint on a target column and back. The cell is a range every related
// column's values overlap, so the candidates stay the same; but a filter set
// depends on which target columns the specification constrains too: the
// cleared round decomposes afresh, into another number of filters, and maps
// what a cold round maps, and the revert finds the first round's set.
func TestSessionSetCacheKeysOnConstrainedTargets(t *testing.T) {
	eng := NewEngine(smallMondial(t))
	sess := eng.NewSession()
	spec, err := constraint.Delta{UpdateCells: []constraint.CellUpdate{{Row: 0, Col: 2, Cell: "[0, 1000000000]"}}}.Apply(paperSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	opts := sessionOpts()
	opts.Trace = true
	cachedSet := func(r *Report) any { return r.Trace.Find("decompose").Attrs["cachedSet"] }

	first, err := sess.Discover(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	clear := constraint.Delta{UpdateCells: []constraint.CellUpdate{{Row: 0, Col: 2, Cell: ""}}}
	cleared, err := sess.Refine(context.Background(), clear, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cleared.CandidatesEnumerated != first.CandidatesEnumerated {
		t.Fatalf("clearing the range cell changed the candidates: %d, then %d", first.CandidatesEnumerated, cleared.CandidatesEnumerated)
	}
	if got := cachedSet(cleared); got != false || cleared.FiltersGenerated == first.FiltersGenerated {
		t.Errorf("cleared round: cachedSet %v, %d filters after %d; want a fresh set of another size", got, cleared.FiltersGenerated, first.FiltersGenerated)
	}
	reference, err := NewEngine(smallMondial(t)).Discover(context.Background(), sess.Spec(), sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if mappingDigest(cleared) != mappingDigest(reference) {
		t.Errorf("cleared round diverges from a cold round:\n--- reference ---\n%s--- session ---\n%s", mappingDigest(reference), mappingDigest(cleared))
	}

	revert := constraint.Delta{UpdateCells: []constraint.CellUpdate{{Row: 0, Col: 2, Cell: "[0, 1000000000]"}}}
	reverted, err := sess.Refine(context.Background(), revert, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cachedSet(reverted); got != true || reverted.FiltersGenerated != first.FiltersGenerated || reverted.Validations != 0 {
		t.Errorf("reverted round: cachedSet %v, %d filters, %d validations; want the first round's %d filters, cached, and nothing validated",
			got, reverted.FiltersGenerated, reverted.Validations, first.FiltersGenerated)
	}
}

// TestSessionKeyIgnoresTargetOrder runs the walkthrough, then the same
// specification with its target columns reversed — sample cells and
// metadata move together. An outcome is keyed by its join tree and its
// constrained (source column, cell) pairs, never by the target column a
// source feeds, so the reversed round finds every outcome the first round
// stored, validates nothing, and maps what a fresh round over the reversed
// specification maps.
func TestSessionKeyIgnoresTargetOrder(t *testing.T) {
	sess := NewEngine(smallMondial(t)).NewSession()
	cold, err := sess.Discover(context.Background(), paperSpec(t), sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	reversed, err := constraint.ParseGrid(3,
		[][]string{{"", "Lake Tahoe", "California || Nevada"}},
		[]string{"DataType=='decimal' AND MinValue>='0'", "", ""},
	)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Discover(context.Background(), reversed, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Validations != 35 || warm.Validations != 0 || warm.Cache.Hits != 35 {
		t.Errorf("cold round %d validations, reversed round %d validations and %d cache hits; want 35, then 0 and 35",
			cold.Validations, warm.Validations, warm.Cache.Hits)
	}
	fresh, err := NewEngine(smallMondial(t)).Discover(context.Background(), reversed, sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Mappings) == 0 || mappingDigest(warm) != mappingDigest(fresh) {
		t.Errorf("reversed session round diverges from a fresh round:\n--- fresh ---\n%s--- session ---\n%s",
			mappingDigest(fresh), mappingDigest(warm))
	}
}

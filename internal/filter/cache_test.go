package filter

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"prism/internal/constraint"
	"prism/internal/difftest"
	"prism/internal/graphx"
	"prism/internal/schema"
)

func TestOutcomeCacheBasics(t *testing.T) {
	c := NewOutcomeCache(0)
	if c.Stats().Capacity != DefaultCacheCapacity {
		t.Errorf("default capacity = %d, want %d", c.Stats().Capacity, DefaultCacheCapacity)
	}
	if _, ok := c.Lookup("k1"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Store("k1", true)
	c.Store("k2", false)
	if passed, ok := c.Lookup("k1"); !ok || !passed {
		t.Errorf("k1 = (%v, %v), want (true, true)", passed, ok)
	}
	if passed, ok := c.Lookup("k2"); !ok || passed {
		t.Errorf("k2 = (%v, %v), want (false, true)", passed, ok)
	}
	// The empty lookup counts nothing; each stored outcome is one miss.
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Stores != 2 || st.Size != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOutcomeCacheLRUEviction(t *testing.T) {
	c := NewOutcomeCache(3)
	for i := 0; i < 3; i++ {
		c.Store(fmt.Sprintf("k%d", i), true)
	}
	// Touch k0 so k1 becomes the least recently used entry.
	if _, ok := c.Lookup("k0"); !ok {
		t.Fatal("k0 should be cached")
	}
	c.Store("k3", false)
	if _, ok := c.Lookup("k1"); ok {
		t.Error("k1 should have been evicted as least recently used")
	}
	for _, key := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Lookup(key); !ok {
			t.Errorf("%s should have survived eviction", key)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 3 {
		t.Errorf("stats = %+v", st)
	}
	// Re-storing an existing key refreshes recency without growing the cache.
	c.Store("k0", true)
	if c.Len() != 3 {
		t.Errorf("Len = %d after duplicate store, want 3", c.Len())
	}
}

func TestOutcomeCacheConcurrency(t *testing.T) {
	c := NewOutcomeCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%200)
				c.Store(key, i%2 == 0)
				c.Lookup(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

func TestValidationKeyIdentity(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	if set.NumFilters() < 2 {
		t.Fatal("fixture too small")
	}

	// Stable across calls.
	for _, f := range set.Filters {
		if ValidationKey(f, fx.spec, 0) != ValidationKey(f, fx.spec, 0) {
			t.Fatalf("key of %s is not deterministic", f)
		}
	}

	// Distinct filters keyed under one spec must not collide (their plans or
	// covered constraints differ).
	seen := make(map[string]string)
	for _, f := range set.Filters {
		key := ValidationKey(f, fx.spec, 0)
		if prev, dup := seen[key]; dup {
			t.Errorf("filters %s and %s share key %s", prev, f, key)
		}
		seen[key] = f.String()
	}

	// The dataset version is part of the key.
	f := set.Filters[0]
	if ValidationKey(f, fx.spec, 0) == ValidationKey(f, fx.spec, 1) {
		t.Error("bumping the dataset version should change the key")
	}
}

// outcomeClass is what a validation's outcome depends on, spelled out: the
// filter's join tree (table count and Canonical signature) and, per sample,
// the sorted constrained (lower-cased source column, cell) pairs it covers,
// as a sorted set over the samples. A specification with no samples checks
// one sample of unconstrained cells.
func outcomeClass(f *Filter, spec *constraint.Spec) string {
	samples := spec.Samples
	if len(samples) == 0 {
		samples = []constraint.SampleConstraint{{}}
	}
	var rows [][]string
	for _, sample := range samples {
		pairs := []string{}
		for i, tc := range f.TargetCols {
			if tc < len(sample.Cells) && sample.Cells[tc] != nil {
				pairs = append(pairs, fmt.Sprintf("%q=%q", strings.ToLower(f.Sources[i].String()), sample.Cells[tc].String()))
			}
		}
		slices.Sort(pairs)
		rows = append(rows, pairs)
	}
	slices.SortFunc(rows, slices.Compare)
	rows = slices.CompactFunc(rows, slices.Equal)
	return fmt.Sprintf("%d %q %q", f.Tree.Size(), f.Tree.Canonical(), rows)
}

// reversed returns spec with its target columns in reverse order, sample
// cells and metadata alike, and the candidates with their projections
// reversed to match.
func reversed(t *testing.T, spec *constraint.Spec, candidates []graphx.Candidate) (*constraint.Spec, []graphx.Candidate) {
	t.Helper()
	samples := make([]constraint.SampleConstraint, len(spec.Samples))
	for i, s := range spec.Samples {
		samples[i].Cells = slices.Clone(s.Cells)
		slices.Reverse(samples[i].Cells)
	}
	metadata := slices.Clone(spec.Metadata)
	slices.Reverse(metadata)
	rev, err := constraint.NewSpec(spec.NumColumns, samples, metadata)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]graphx.Candidate, len(candidates))
	for i, c := range candidates {
		cands[i] = graphx.Candidate{Tree: c.Tree, Projection: slices.Clone(c.Projection)}
		slices.Reverse(cands[i].Projection)
	}
	return rev, cands
}

// TestValidationKeyIsTheOutcomeClass: over the generator pools of the three
// bundled databases, two filters have equal keys exactly when they have
// equal outcome classes. Each round is decomposed twice, as given and with
// its target columns reversed, and the two sets' filters are pooled: the
// reversed round must find every key of the first and no other.
func TestValidationKeyIsTheOutcomeClass(t *testing.T) {
	filters, keys := 0, 0
	for name, db := range difftest.Databases(t) {
		rounds, candidates := differentialRounds(t, db, 2)
		for i, round := range rounds {
			label := name + " " + round.Name
			revSpec, revCands := reversed(t, round.Spec, candidates[i])
			sides := []struct {
				spec *constraint.Spec
				set  *Set
				keys map[string]bool
			}{
				{round.Spec, decomposeFor(t, round.Spec, candidates[i]), map[string]bool{}},
				{revSpec, decomposeFor(t, revSpec, revCands), map[string]bool{}},
			}
			classOf := make(map[string]string)
			keyOf := make(map[string]string)
			for _, side := range sides {
				for _, f := range side.set.Filters {
					key, class := ValidationKey(f, side.spec, 7), outcomeClass(f, side.spec)
					if c, ok := classOf[key]; ok && c != class {
						t.Fatalf("%s: key %q names two classes:\n%s\n%s", label, key, c, class)
					}
					if k, ok := keyOf[class]; ok && k != key {
						t.Fatalf("%s: class %s has two keys:\n%q\n%q", label, class, k, key)
					}
					classOf[key], keyOf[class] = class, key
					side.keys[key] = true
					filters++
				}
			}
			for key := range sides[0].keys {
				if !sides[1].keys[key] {
					t.Errorf("%s: reversing the target columns lost key %q", label, key)
				}
			}
			if len(sides[1].keys) != len(sides[0].keys) {
				t.Errorf("%s: %d keys, reversed %d", label, len(sides[0].keys), len(sides[1].keys))
			}
			keys += len(sides[0].keys)
		}
	}
	t.Logf("%d filters, %d keys each found again with the target columns reversed", filters, keys)
}

// TestValidationKeySpelling: one join tree spelled with another table
// order, letter case or edge orientation, and a target column renumbered
// with its cell, keep the key; another tree, cell, source or dataset
// version changes it.
func TestValidationKeySpelling(t *testing.T) {
	ref := func(table, column string) schema.ColumnRef { return schema.ColumnRef{Table: table, Column: column} }
	grid := func(cells ...string) *constraint.Spec {
		spec, err := constraint.ParseGrid(len(cells), [][]string{cells}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	lakeProvince := graphx.Tree{
		Tables: []string{"Lake", "geo_lake"},
		Edges:  []schema.ForeignKey{{From: ref("geo_lake", "Lake"), To: ref("Lake", "Name")}},
	}
	spec := grid("Lake Tahoe", "California")
	base := &Filter{Tree: lakeProvince, TargetCols: []int{0, 1}, Sources: []schema.ColumnRef{ref("Lake", "Name"), ref("geo_lake", "Province")}}
	key := ValidationKey(base, spec, 3)

	respelled := &Filter{
		Tree: graphx.Tree{
			Tables: []string{"GEO_LAKE", "lake"},
			Edges:  []schema.ForeignKey{{From: ref("LAKE", "name"), To: ref("Geo_Lake", "lake")}},
		},
		TargetCols: []int{0, 1},
		Sources:    []schema.ColumnRef{ref("lake", "NAME"), ref("GEO_LAKE", "province")},
	}
	renumbered := &Filter{Tree: lakeProvince, TargetCols: []int{0, 1}, Sources: []schema.ColumnRef{ref("geo_lake", "Province"), ref("Lake", "Name")}}
	for _, same := range []struct {
		name string
		got  string
	}{
		{"another table order, case and edge orientation", ValidationKey(respelled, spec, 3)},
		{"target columns renumbered with their cells", ValidationKey(renumbered, grid("California", "Lake Tahoe"), 3)},
	} {
		if same.got != key {
			t.Errorf("%s: key %q, want %q", same.name, same.got, key)
		}
	}

	wider := &Filter{
		Tree: graphx.Tree{
			Tables: []string{"Lake", "geo_lake", "Province"},
			Edges: []schema.ForeignKey{
				{From: ref("geo_lake", "Lake"), To: ref("Lake", "Name")},
				{From: ref("geo_lake", "Province"), To: ref("Province", "Name")},
			},
		},
		TargetCols: base.TargetCols,
		Sources:    base.Sources,
	}
	otherSource := &Filter{Tree: lakeProvince, TargetCols: []int{0, 1}, Sources: []schema.ColumnRef{ref("geo_lake", "Lake"), ref("geo_lake", "Province")}}
	for _, other := range []struct {
		name string
		got  string
	}{
		{"another tree", ValidationKey(wider, spec, 3)},
		{"another cell", ValidationKey(base, grid("Crater Lake", "California"), 3)},
		{"another source", ValidationKey(otherSource, spec, 3)},
		{"another dataset version", ValidationKey(base, spec, 4)},
	} {
		if other.got == key {
			t.Errorf("%s kept the key %q", other.name, key)
		}
	}
}

func TestValidationKeySampleOrderInvariance(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)

	twoRows, err := constraint.ParseGrid(3,
		[][]string{
			{"California || Nevada", "Lake Tahoe", ""},
			{"Oregon", "Crater Lake", ""},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := constraint.ParseGrid(3,
		[][]string{
			{"Oregon", "Crater Lake", ""},
			{"California || Nevada", "Lake Tahoe", ""},
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range set.Filters {
		if ValidationKey(f, twoRows, 0) != ValidationKey(f, swapped, 0) {
			t.Fatalf("sample row order changed the key of %s", f)
		}
	}
}

func TestValidationKeyUnrelatedCellChange(t *testing.T) {
	fx := newFixture(t)

	// Refine the Area cell (target column 3): filters not covering column 3
	// keep their keys — the reuse the session cache exploits — while filters
	// covering it change. The filters are those of the refined round, the
	// only one whose filters cover column 3.
	refined, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", "[400, 600]"}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		t.Fatal(err)
	}
	set := decomposeFor(t, refined, fx.candidates)
	unchanged, changed := 0, 0
	for _, f := range set.Filters {
		coversArea := false
		for _, tc := range f.TargetCols {
			if tc == 2 {
				coversArea = true
			}
		}
		same := ValidationKey(f, fx.spec, 0) == ValidationKey(f, refined, 0)
		if coversArea {
			if same {
				t.Errorf("filter %s covers the refined column but kept its key", f)
			}
			changed++
		} else {
			if !same {
				t.Errorf("filter %s does not cover the refined column but changed key", f)
			}
			unchanged++
		}
	}
	if unchanged == 0 || changed == 0 {
		t.Fatalf("fixture should exercise both sides (unchanged=%d changed=%d)", unchanged, changed)
	}
}

func TestSessionRecordCached(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	sess := NewSession(set)

	// Fail the filter with the widest reach from cache: candidates prune and
	// implications propagate exactly as for an executed validation, but
	// Executed stays zero.
	widest, reach := 0, 0
	for i := range set.Filters {
		if r := sess.PruningReach(i); r > reach {
			widest, reach = i, r
		}
	}
	sess.RecordCached(widest, false)
	if sess.Executed != 0 {
		t.Errorf("Executed = %d, want 0", sess.Executed)
	}
	if sess.Cached != 1 {
		t.Errorf("Cached = %d, want 1", sess.Cached)
	}
	if got := len(sess.Pruned()); got != reach {
		t.Errorf("pruned %d candidates, want %d", got, reach)
	}
}

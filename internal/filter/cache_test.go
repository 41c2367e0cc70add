package filter

import (
	"fmt"
	"sync"
	"testing"

	"prism/internal/constraint"
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

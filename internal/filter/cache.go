package filter

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prism/internal/constraint"
)

// ValidationKey is the cache identity of one filter validation: the triple
// (tree signature, constraint signature, dataset version) that interactive
// sessions key their filter-outcome caches on. It holds no hash, so two
// keys are equal exactly when their parts are.
//
// A validation outcome is a ground truth of the database: "does the
// filter's join contain, for every sample constraint, a tuple matching the
// sample's cells on the covered target columns?" That question is fully
// determined by
//
//   - the filter's join tree (Filter.TreeSignature — table order, edge
//     order and direction, and case are normalised away, because existence
//     does not depend on row order),
//   - the constraints actually applied: per sample, the multiset of
//     (source column, value-constraint) pairs on the covered target
//     columns. Together these name every source column the filter
//     constrains; the projection itself is not part of the key, since
//     validation never filters on an unconstrained column. A sample whose
//     covered cells are all unconstrained still requires the sub-join to be
//     non-empty, which the sentinel "∃" signature captures; a specification
//     with no samples at all behaves identically. Samples are conjunctive
//     and order-independent, so their signatures are sorted and
//     deduplicated — refining an *unrelated* cell, reordering sample rows,
//     or renumbering target columns all leave the key (and therefore the
//     cached ground truth) intact,
//   - the dataset version (mem.Database.Version), so a data mutation makes
//     older entries unreachable rather than stale.
//
// Two validations with equal keys have equal outcomes on every conforming
// executor, which is why a session cache can serve hits across rounds,
// across sample reorderings, and even across execution backends.
func ValidationKey(f *Filter, spec *constraint.Spec, datasetVersion uint64) string {
	sigs := sampleSignatures(f, spec)
	var b strings.Builder
	b.WriteString("v")
	b.WriteString(strconv.FormatUint(datasetVersion, 10))
	b.WriteString("|")
	b.WriteString(strconv.Quote(f.TreeSignature()))
	b.WriteString("|")
	b.WriteString(strings.Join(sigs, ";"))
	return b.String()
}

// sampleSignatures renders, per sample constraint, the conjunction the
// validator actually checks against the filter: "source=constraint" pairs
// for the covered, constrained cells, or the non-emptiness sentinel "∃".
// Signatures are sorted and deduplicated — validation is a conjunction over
// samples, so order and multiplicity cannot change the outcome. Every part
// is strconv.Quote-framed before joining: constraint cells may contain the
// joiner characters themselves, and the quoting keeps part boundaries
// unambiguous so distinct constraint sets can never collide into one key.
func sampleSignatures(f *Filter, spec *constraint.Spec) []string {
	samples := spec.Samples
	sigs := make([]string, 0, len(samples)+1)
	add := func(sig string) {
		sigs = append(sigs, sig)
	}
	exists := strconv.Quote("∃")
	if len(samples) == 0 {
		add(exists)
	}
	for _, sample := range samples {
		var parts []string
		for i, tc := range f.TargetCols {
			if tc >= len(sample.Cells) || sample.Cells[tc] == nil {
				continue
			}
			parts = append(parts, strconv.Quote(strings.ToLower(f.Sources[i].String())+"="+sample.Cells[tc].String()))
		}
		if len(parts) == 0 {
			add(exists)
			continue
		}
		sort.Strings(parts)
		add(strings.Join(parts, "&"))
	}
	sort.Strings(sigs)
	out := sigs[:0]
	var last string
	for i, s := range sigs {
		if i > 0 && s == last {
			continue
		}
		last = s
		out = append(out, s)
	}
	return out
}

// CacheStats is a point-in-time snapshot of an OutcomeCache's lifetime
// activity. Hits, Misses and Stores count what a scheduling run's Result
// counts, so a session's are the sums of its rounds' Report.Cache.
type CacheStats struct {
	// Hits counts the outcomes Lookup served; Misses the outcomes a
	// validation established instead, one per Store (a Lookup that finds
	// nothing counts nothing: most such filters are then implied).
	Hits   int
	Misses int
	// Stores counts Store calls; Evictions counts entries dropped by the
	// LRU policy to stay within capacity.
	Stores    int
	Evictions int
	// Size and Capacity describe the current occupancy.
	Size     int
	Capacity int
}

// DefaultCacheCapacity bounds a session's filter-outcome cache when the
// caller does not choose a capacity. Entries are a short key string plus a
// boolean, so even the default upper bound costs at most a few MB.
const DefaultCacheCapacity = 1 << 16

// OutcomeCache is a concurrency-safe LRU cache of filter-validation
// outcomes, keyed by ValidationKey. One cache belongs to one interactive
// session: every round of the session consults it before executing a
// validation and writes back what it executed, so a refined round only pays
// for the filters its delta actually changed.
//
// Outcomes are ground truths of (plan, constraints, dataset version), never
// of the executor or the scheduling policy — a session may switch backends
// or policies between rounds and keep hitting.
type OutcomeCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	stats    CacheStats
}

// cacheEntry is one LRU element.
type cacheEntry struct {
	key    string
	passed bool
}

// NewOutcomeCache creates a cache bounded to capacity entries (<= 0 selects
// DefaultCacheCapacity).
func NewOutcomeCache(capacity int) *OutcomeCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &OutcomeCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Lookup returns the cached outcome for key, marking the entry as recently
// used. ok is false on a miss.
func (c *OutcomeCache) Lookup(key string) (passed, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, hit := c.entries[key]
	if !hit {
		return false, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).passed, true
}

// Store records the outcome for key, evicting the least recently used
// entries beyond capacity. Storing an existing key refreshes its recency
// (the outcome is a ground truth, so it cannot change for a fixed key).
func (c *OutcomeCache) Store(key string, passed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Stores++
	c.stats.Misses++
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).passed = passed
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, passed: passed})
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Len returns the number of cached outcomes.
func (c *OutcomeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache's lifetime counters.
func (c *OutcomeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.lru.Len()
	s.Capacity = c.capacity
	return s
}

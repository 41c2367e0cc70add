package discovery

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"prism/internal/constraint"
	"prism/internal/filter"
	"prism/internal/graphx"
)

// Session is an interactive refinement session over one engine: the unit of
// the demo's iterate-on-constraints loop. It carries the constraint state
// across rounds and owns a concurrency-safe filter-outcome cache keyed by
// (plan fingerprint, filter constraint fingerprint, dataset version), so a
// refined round re-executes only the validations its delta actually
// invalidated — everything else is served from ground truths established by
// earlier rounds.
//
// A session is safe for concurrent use: rounds may overlap (they share the
// cache, which only ever stores ground truths) and the constraint state is
// updated atomically per round. Outcomes are independent of the executor
// and the scheduling policy, so rounds of one session may switch
// Options.Policy freely and keep hitting the cache.
type Session struct {
	eng   *Engine
	cache *filter.OutcomeCache

	mu     sync.Mutex
	spec   *constraint.Spec
	rounds int
	closed bool

	// sets caches filter decompositions by candidate-list fingerprint.
	// A filter.Set depends only on the candidates (not on constraint
	// values or data) and is immutable once built, so warm rounds, which
	// usually enumerate the identical candidate list, skip the rebuild and
	// find every filter's plan and fingerprint already rendered. setOrder
	// tracks insertion for FIFO eviction at setCacheCapacity.
	setMu    sync.Mutex
	sets     map[string]*filter.Set
	setOrder []string
}

// setCacheCapacity bounds the per-session decomposition cache. Refinement
// loops alternate between a handful of candidate lists, so a small bound
// suffices; one Set is far heavier than an outcome entry.
const setCacheCapacity = 8

// candidatesKey fingerprints a candidate list (order-sensitive, since the
// Set indexes candidates by position) from the signatures enumeration
// rendered.
func candidatesKey(candidates []graphx.Candidate) string {
	h := fnv.New64a()
	for _, c := range candidates {
		h.Write([]byte(c.Canonical()))
		h.Write([]byte{0})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// lookupSet returns the cached decomposition of the candidate list, if any.
func (s *Session) lookupSet(candidates []graphx.Candidate) *filter.Set {
	key := candidatesKey(candidates)
	s.setMu.Lock()
	defer s.setMu.Unlock()
	return s.sets[key]
}

// storeSet caches a freshly built decomposition.
func (s *Session) storeSet(candidates []graphx.Candidate, set *filter.Set) {
	key := candidatesKey(candidates)
	s.setMu.Lock()
	defer s.setMu.Unlock()
	if s.sets == nil {
		s.sets = make(map[string]*filter.Set)
	}
	if _, dup := s.sets[key]; dup {
		return
	}
	s.sets[key] = set
	s.setOrder = append(s.setOrder, key)
	if len(s.setOrder) > setCacheCapacity {
		delete(s.sets, s.setOrder[0])
		s.setOrder = s.setOrder[1:]
	}
}

// NewSession opens a refinement session whose filter-outcome cache holds up
// to cacheCapacity outcomes (<= 0 selects filter.DefaultCacheCapacity).
func (e *Engine) NewSession(cacheCapacity int) *Session {
	return &Session{eng: e, cache: filter.NewOutcomeCache(cacheCapacity)}
}

// Engine returns the engine the session runs over.
func (s *Session) Engine() *Engine { return s.eng }

// Spec returns the session's current constraint specification (nil before
// the first Discover). The returned specification must be treated as
// read-only; Refine derives new specifications instead of mutating it.
func (s *Session) Spec() *constraint.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spec
}

// Rounds returns the number of completed discovery rounds.
func (s *Session) Rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// CacheStats snapshots the session cache's lifetime counters (across all
// rounds, unlike the per-round Report.Cache).
func (s *Session) CacheStats() filter.CacheStats { return s.cache.Stats() }

// Close ends the session and releases its caches. Rounds started after
// Close fail; in-flight rounds complete.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	s.spec = nil
	s.mu.Unlock()
	s.setMu.Lock()
	s.sets = nil
	s.setOrder = nil
	s.setMu.Unlock()
}

// Discover runs one session round over a full specification, which becomes
// the session's constraint state. The first round of a session is always a
// Discover; later rounds may keep calling it with hand-built specifications
// or use Refine to describe only what changed.
func (s *Session) Discover(ctx context.Context, spec *constraint.Spec, opts Options) (*Report, error) {
	if spec == nil {
		return nil, fmt.Errorf("discovery: session round needs a specification")
	}
	return s.round(ctx, spec, opts)
}

// Refine applies a delta to the session's current specification and runs
// one round over the result. Filters whose covered constraint cells the
// delta did not touch keep their cache keys, so the round only validates
// the changed part of the search space; the mapping set is byte-identical
// to what a cold round over the same refined specification would return.
func (s *Session) Refine(ctx context.Context, delta constraint.Delta, opts Options) (*Report, error) {
	s.mu.Lock()
	base := s.spec
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("discovery: session is closed")
	}
	if base == nil {
		return nil, fmt.Errorf("discovery: Refine before the first Discover round; start with a full specification")
	}
	spec, err := delta.Apply(base)
	if err != nil {
		return nil, err
	}
	return s.round(ctx, spec, opts)
}

// round runs one cached discovery round and commits the specification as
// the session state.
func (s *Session) round(ctx context.Context, spec *constraint.Spec, opts Options) (*Report, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("discovery: session is closed")
	}
	s.mu.Unlock()
	report, err := s.eng.run(ctx, spec, opts, nil, s)
	s.mu.Lock()
	if !s.closed {
		s.spec = spec
		s.rounds++
	}
	s.mu.Unlock()
	return report, err
}

package prism

import (
	"context"

	"prism/internal/constraint"
	"prism/internal/discovery"
	"prism/internal/filter"
)

// Refinement-session types, re-exported for the public surface.
type (
	// Delta is one refinement step of an interactive session: the cells
	// added, rewritten or removed relative to the current specification.
	Delta = constraint.Delta
	// CellUpdate rewrites one sample-grid cell (zero-based row/column; an
	// empty cell clears the constraint).
	CellUpdate = constraint.CellUpdate
	// MetadataUpdate rewrites one metadata cell (zero-based column).
	MetadataUpdate = constraint.MetadataUpdate
	// CacheCounters reports a round's filter-outcome cache activity in
	// Report.Cache; Hits is the round's saved-validation count.
	CacheCounters = discovery.CacheCounters
	// CacheStats snapshots a session cache's lifetime counters.
	CacheStats = filter.CacheStats
)

// Session is an interactive refinement session: it carries constraint
// state across discovery rounds over one engine and owns a filter-outcome
// cache keyed by (tree signature, constraint signature, dataset
// version). Filter outcomes are ground truths of the database, so a round
// serves every previously established outcome from the cache and executes
// only what its delta actually changed — with a mapping set byte-identical
// to a cold round over the same constraints. See docs/sessions.md.
//
// Sessions are safe for concurrent use and cheap to create; hold one per
// interactive user (the server keeps one per /api/session id).
type Session struct {
	inner *discovery.Session
	// stop detaches the context watcher installed by NewSession.
	stop func()
}

// NewSession opens a refinement session over the engine. The session lives
// until Close is called or ctx is cancelled, whichever comes first — tie it
// to a request, connection or UI lifetime.
func (e *Engine) NewSession(ctx context.Context) *Session {
	s := &Session{inner: e.inner.NewSession()}
	if ctx != nil && ctx.Done() != nil {
		watch, stop := context.WithCancel(ctx)
		s.stop = stop
		go func() {
			<-watch.Done()
			s.inner.Close()
		}()
	}
	return s
}

// Discover runs one session round over a full specification, which becomes
// the session's constraint state; the first round of a session is always a
// Discover. Report.Cache carries the round's hit/miss/saved-validation
// counters.
func (s *Session) Discover(ctx context.Context, spec *Spec, opts Options) (*Report, error) {
	return s.inner.Discover(ctx, spec, opts)
}

// Refine applies a delta to the session's current specification and runs
// one round over the result: the interactive loop's "adjust a cell, search
// again" step. Only filters whose covered constraint cells the delta
// touched are re-validated; everything else is served from the session
// cache.
func (s *Session) Refine(ctx context.Context, delta Delta, opts Options) (*Report, error) {
	return s.inner.Refine(ctx, delta, opts)
}

// Spec returns the session's current constraint specification (nil before
// the first Discover round). Treat it as read-only.
func (s *Session) Spec() *Spec { return s.inner.Spec() }

// Rounds returns the number of completed rounds.
func (s *Session) Rounds() int { return s.inner.Rounds() }

// CacheStats snapshots the session cache's lifetime counters.
func (s *Session) CacheStats() CacheStats { return s.inner.CacheStats() }

// Close ends the session and releases its cache; further rounds fail.
func (s *Session) Close() {
	if s.stop != nil {
		s.stop()
	}
	s.inner.Close()
}

package discovery

import (
	"time"

	"prism/internal/schema"
)

// EventKind names the kind of a streaming discovery event.
type EventKind string

const (
	// EventRelated reports the related-column search result (step #1).
	EventRelated EventKind = "related"
	// EventCandidates reports that candidate enumeration finished.
	EventCandidates EventKind = "candidates"
	// EventFilters reports that filter decomposition finished and the
	// validation phase is about to start.
	EventFilters EventKind = "filters"
	// EventProgress reports validation-phase progress (one event per
	// applied validation outcome; consumers may throttle display).
	EventProgress EventKind = "progress"
	// EventMapping delivers one confirmed schema mapping query, as soon as
	// the scheduler resolves its candidate — before the round completes.
	EventMapping EventKind = "mapping"
	// EventDone is the final event of every stream: it carries the full
	// (or, after cancellation/timeout, partial) report and the round error.
	EventDone EventKind = "done"
)

// Progress describes how far a discovery round has advanced.
type Progress struct {
	// CandidatesEnumerated and FiltersGenerated describe the search space
	// (0 until the corresponding phase has run).
	CandidatesEnumerated int `json:"candidates"`
	FiltersGenerated     int `json:"filters"`
	// Validations and Implied count executed and propagated filter
	// outcomes in the validation phase.
	Validations int `json:"validations"`
	Implied     int `json:"implied"`
	// Confirmed, Pruned and Unresolved partition the candidates.
	Confirmed  int `json:"confirmed"`
	Pruned     int `json:"pruned"`
	Unresolved int `json:"unresolved"`
	// Elapsed counts from the round's start and TimeRemaining to the round's
	// deadline (0 when it has none), the same on every event of the round.
	Elapsed       time.Duration `json:"elapsed"`
	TimeRemaining time.Duration `json:"timeRemaining"`
}

// Event is one element of a DiscoverStream: a phase marker, a progress
// update, an incrementally delivered mapping, or the final report.
type Event struct {
	Kind EventKind
	// Related is set on EventRelated.
	Related [][]schema.ColumnRef
	// Progress is populated on every event kind once known.
	Progress Progress
	// Mapping is set on EventMapping.
	Mapping *Mapping
	// Report and Err are set on EventDone. After cancellation or timeout
	// Report is the partial report and Err the terminating error.
	Report *Report
	Err    error
}

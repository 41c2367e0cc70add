// Package api defines Prism's versioned wire format: the JSON request and
// response types served under /api/v1/* by the demo server
// (prism/internal/server), consumed by the official Go client
// (prism/client), and stable for third-party clients in any language.
//
// The package is the single source of truth for the wire layer — the
// server marshals these exact types and the client unmarshals them, so the
// two can never drift apart. It has three parts:
//
//   - the endpoint bodies (DiscoverRequest, DiscoverResponse, StreamEvent,
//     the session types, SampleResponse, DatasetsResponse), and SplitCells,
//     which cuts one '|'-separated row of grid text into its cells;
//   - the structured constraint-specification codec (Spec, ValueExpr,
//     MetaExpr — see spec.go), which lets programs send typed constraint
//     trees instead of the demo's string grids;
//   - the error envelope (Error) and the error-code table that maps wire
//     codes back to the library's sentinel errors (see errors.go).
//
// Version v1 is append-only: fields may be added, existing fields and
// codes keep their meaning. A retired request field ("parallelism",
// "executor", "policy") is ignored by the decoders, so an old body is answered as if
// it did not carry it; a retired response field or code is never reused.
//
// One endpoint is deliberately not JSON: GET /api/v1/metrics (MetricsPath)
// serves the Prometheus text exposition format so standard scrapers can
// consume it directly; its errors (e.g. method_not_allowed) still use the
// structured Error envelope.
package api

import (
	"strings"
	"time"
)

// Version names the wire format this package defines.
const Version = "v1"

// PathPrefix is the mount point of the versioned JSON API; the endpoint
// constants below are relative to it.
const PathPrefix = "/api/v1"

// DiscoverRequest is the JSON body of POST /api/v1/discover and
// POST /api/v1/discover/stream. The constraint specification is given
// either as the demo's raw string grids (NumColumns + Samples + Metadata,
// cells in the multiresolution constraint language) or as a structured
// Spec tree — sending both is rejected.
type DiscoverRequest struct {
	Database   string     `json:"database"`
	NumColumns int        `json:"numColumns,omitempty"`
	Samples    [][]string `json:"samples,omitempty"`
	Metadata   []string   `json:"metadata,omitempty"`
	// Spec is the structured alternative to the string grids.
	Spec *Spec `json:"spec,omitempty"`

	MaxResults int `json:"maxResults,omitempty"`
	// TimeoutMs shortens the round's time budget below the server's
	// limit (values above it are clamped).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// SplitCells splits a row of grid text on '|' while keeping '||'
// disjunctions intact and pads or cuts it to n cells. A '||' is a
// disjunction only between two non-blank sides; otherwise it separates
// empty cells.
func SplitCells(line string, n int) []string {
	parts := strings.Split(line, "|")
	var cells []string
	for i := 0; i < len(parts); i++ {
		cell := parts[i]
		for i+2 < len(parts) && parts[i+1] == "" &&
			strings.TrimSpace(cell) != "" && strings.TrimSpace(parts[i+2]) != "" {
			cell = cell + "||" + parts[i+2]
			i += 2
		}
		cells = append(cells, strings.TrimSpace(cell))
	}
	out := make([]string, max(n, 0))
	copy(out, cells)
	return out
}

// Mapping describes one discovered schema mapping query.
type Mapping struct {
	SQL        string     `json:"sql"`
	Tables     []string   `json:"tables"`
	Columns    []string   `json:"columns"`
	ResultRows [][]string `json:"resultRows,omitempty"`
	GraphSVG   string     `json:"graphSvg,omitempty"`
}

// CacheStats reports a session round's filter-outcome cache counters;
// Hits counts validations skipped entirely (the saved-validation metric).
type CacheStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Stores int `json:"stores"`
}

// DiscoverResponse is the JSON answer of POST /api/v1/discover and of
// session refine rounds (which additionally carry the session fields).
type DiscoverResponse struct {
	Database    string    `json:"database"`
	Mappings    []Mapping `json:"mappings"`
	Candidates  int       `json:"candidates"`
	Filters     int       `json:"filters"`
	Validations int       `json:"validations"`
	Implied     int       `json:"implied,omitempty"`
	ElapsedMS   int64     `json:"elapsedMs"`
	TimedOut    bool      `json:"timedOut"`
	Failure     string    `json:"failure,omitempty"`
	Error       string    `json:"error,omitempty"`
	// Code classifies Error for programmatic clients ("unknown_database",
	// "invalid_request", "bad_request", ...); see errors.go for the table.
	Code string `json:"code,omitempty"`
	// SessionID, Round and Cache are set on session refine rounds.
	SessionID string      `json:"sessionId,omitempty"`
	Round     int         `json:"round,omitempty"`
	Cache     *CacheStats `json:"cache,omitempty"`
}

// Err returns the response's embedded round error as an *Error (nil when
// the round succeeded). Clients use it to surface 422 round failures with
// the same sentinel mapping as envelope errors.
func (r *DiscoverResponse) Err() error {
	if r == nil || r.Error == "" {
		return nil
	}
	return &Error{Message: r.Error, Code: r.Code}
}

// EventKind names the kind of a streaming discovery event: the in-process
// stream (prism.StreamEvent) and the remote one (client.StreamEvent) carry
// it, and StreamEvent.Event is its wire form.
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

// Progress describes how far a discovery round has advanced. The wire
// carries its counts as StreamEvent fields; Elapsed and TimeRemaining travel
// as whole milliseconds.
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

// StreamEvent is one NDJSON line (or SSE data payload) of
// POST /api/v1/discover/stream. Event is the discovery event kind
// ("related", "candidates", "filters", "progress", "mapping", "done");
// Mapping is set on "mapping" events and Result on the final "done" event.
type StreamEvent struct {
	Event       string            `json:"event"`
	Candidates  int               `json:"candidates,omitempty"`
	Filters     int               `json:"filters,omitempty"`
	Validations int               `json:"validations,omitempty"`
	Implied     int               `json:"implied,omitempty"`
	Confirmed   int               `json:"confirmed,omitempty"`
	Pruned      int               `json:"pruned,omitempty"`
	Unresolved  int               `json:"unresolved,omitempty"`
	ElapsedMS   int64             `json:"elapsedMs,omitempty"`
	RemainingMS int64             `json:"remainingMs,omitempty"`
	Mapping     *Mapping          `json:"mapping,omitempty"`
	Result      *DiscoverResponse `json:"result,omitempty"`
}

// DatasetsResponse is the body of GET /api/v1/datasets.
type DatasetsResponse struct {
	Datasets []string `json:"datasets"`
}

// SampleResponse is the body of GET /api/v1/sample: a row preview of one
// source table.
type SampleResponse struct {
	Table string     `json:"table"`
	Rows  [][]string `json:"rows"`
}

// SessionCreateRequest is the body of POST /api/v1/session.
type SessionCreateRequest struct {
	Database string `json:"database"`
}

// SessionResponse describes one refinement session.
type SessionResponse struct {
	SessionID string `json:"sessionId"`
	Database  string `json:"database"`
	Rounds    int    `json:"rounds"`
	// TTLMs is the idle eviction deadline of the session: each round or
	// info request restarts the countdown.
	TTLMs int64 `json:"ttlMs"`
	// Cache snapshots the session cache's lifetime counters.
	Cache CacheStats `json:"cache"`
}

// CellUpdate rewrites one sample cell (zero-based row/column; an empty
// cell clears the constraint).
type CellUpdate struct {
	Row  int    `json:"row"`
	Col  int    `json:"col"`
	Cell string `json:"cell"`
}

// MetadataUpdate rewrites one metadata cell (zero-based column).
type MetadataUpdate struct {
	Col  int    `json:"col"`
	Cell string `json:"cell"`
}

// Delta names the constraint cells a refine round changes.
type Delta struct {
	UpdateCells   []CellUpdate     `json:"updateCells,omitempty"`
	SetMetadata   []MetadataUpdate `json:"setMetadata,omitempty"`
	RemoveSamples []int            `json:"removeSamples,omitempty"`
	AddSamples    [][]string       `json:"addSamples,omitempty"`
}

// RefineRequest is the body of POST /api/v1/session/{id}/refine. The
// first round seeds the session with a full specification (string grids or
// a structured Spec, like POST /api/v1/discover); later rounds usually
// send only a Delta. Sending a full specification again resets the
// constraint state while keeping the session's outcome cache warm.
type RefineRequest struct {
	NumColumns int        `json:"numColumns,omitempty"`
	Samples    [][]string `json:"samples,omitempty"`
	Metadata   []string   `json:"metadata,omitempty"`
	Spec       *Spec      `json:"spec,omitempty"`
	Delta      *Delta     `json:"delta,omitempty"`

	MaxResults int `json:"maxResults,omitempty"`
	TimeoutMs  int `json:"timeoutMs,omitempty"`
}

// SessionCloseResponse is the body of DELETE /api/v1/session/{id}.
type SessionCloseResponse struct {
	Closed bool `json:"closed"`
}

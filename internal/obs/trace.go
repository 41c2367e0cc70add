package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one node of a round trace: a named, timed phase with numeric
// and string attributes and child spans. Discovery builds one tree per
// round (round → enumerate/decompose/schedule → validation batches) and
// attaches it to the Report, so "where did the budget go" is answered
// by the report instead of a profiler.
//
// All methods are safe on a nil *Span and become no-ops, which is how
// tracing stays free when not requested: untraced code paths carry a
// nil span and never branch on a flag.
type Span struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"durationNs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*Span        `json:"children,omitempty"`
	// Dropped counts children beyond the per-span cap that were not
	// recorded (they are still timed by their creators, just detached).
	Dropped int `json:"dropped,omitempty"`

	mu sync.Mutex
}

// maxSpanChildren bounds the memory of one span's child list; a
// pathological round (tens of thousands of validation batches) drops
// the excess and counts it instead of growing without bound.
const maxSpanChildren = 4096

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// Child starts a sub-span under s. Safe for concurrent callers (the
// scheduler's worker pool opens validation spans in parallel). On a nil
// receiver it returns nil, keeping the whole call chain free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now()}
	s.mu.Lock()
	if len(s.Children) < maxSpanChildren {
		s.Children = append(s.Children, c)
	} else {
		s.Dropped++
	}
	s.mu.Unlock()
	return c
}

// End records the span's duration. Idempotent: the first call wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Duration == 0 {
		s.Duration = time.Since(s.Start)
	}
	s.mu.Unlock()
}

// SetAttr attaches one attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = value
	s.mu.Unlock()
}

// Find returns the first span named name in a depth-first walk of the
// tree rooted at s, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range children {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s. A nil s returns ctx unchanged
// so downstream SpanFromContext stays nil (and therefore free).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ndjsonSpan is one flattened trace line: parent links replace nesting
// so each line stays small and the file is greppable.
type ndjsonSpan struct {
	ID         int            `json:"id"`
	Parent     int            `json:"parent,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNs int64          `json:"durationNs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Dropped    int            `json:"dropped,omitempty"`
}

// WriteNDJSON flattens the tree rooted at s into newline-delimited JSON,
// one span per line in depth-first order with parent ids (the root has
// none). This is the -trace FILE format of prism-cli and prism-loadtest.
func (s *Span) WriteNDJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	next := 1
	var walk func(sp *Span, parent int) error
	walk = func(sp *Span, parent int) error {
		sp.mu.Lock()
		// Attrs is cloned, not aliased: encoding happens after the lock
		// is released, and a concurrent SetAttr on a still-live span
		// would race with json.Encode reading the map.
		var attrs map[string]any
		if len(sp.Attrs) > 0 {
			attrs = make(map[string]any, len(sp.Attrs))
			for k, v := range sp.Attrs {
				attrs[k] = v
			}
		}
		line := ndjsonSpan{
			ID:         next,
			Parent:     parent,
			Name:       sp.Name,
			Start:      sp.Start,
			DurationNs: int64(sp.Duration),
			Attrs:      attrs,
			Dropped:    sp.Dropped,
		}
		children := append([]*Span(nil), sp.Children...)
		sp.mu.Unlock()
		id := next
		next++
		if err := enc.Encode(line); err != nil {
			return err
		}
		for _, c := range children {
			if err := walk(c, id); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s, 0)
}

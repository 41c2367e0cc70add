// Package client is the official Go SDK for Prism's versioned JSON API
// (/api/v1/*, wire format in prism/api): remote schema mapping discovery
// with the same shapes, sentinels and streaming semantics as the
// in-process library, so local and remote execution are interchangeable.
//
//	c, err := client.New("http://localhost:8080")
//	spec, _ := api.EncodeSpec(prism.NewSpec(3).
//		Sample(prism.OneOf("California", "Nevada"), prism.Exact("Lake Tahoe"), prism.Any()).
//		Metadata(2, prism.DataTypeIs("decimal"), prism.MinValueAtLeast(0)).
//		MustBuild())
//	resp, err := c.Discover(ctx, api.DiscoverRequest{Database: "mondial", Spec: spec})
//	for _, m := range resp.Mappings {
//		fmt.Println(m.SQL)
//	}
//
// Every call is context-first; cancelling the context aborts the HTTP
// exchange and — because the server runs each round under its request's
// context — the remote discovery round itself. Server error codes come
// back as *api.Error values that unwrap to the library's sentinels, so
// errors.Is(err, prism.ErrUnknownDatabase) works across the wire.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"prism/api"
)

// Client talks to one Prism server. It is safe for concurrent use.
type Client struct {
	base    string
	httpc   *http.Client
	header  http.Header
	retry   retryPolicy
	breaker *breaker
}

// Option customises New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default client has no global timeout —
// per-call contexts bound every request, and streams may legitimately run
// for a full discovery round.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// New creates a client for the Prism server at baseURL (scheme + host
// [+ path prefix], e.g. "http://localhost:8080"). The versioned /api/v1
// prefix is appended by the client; pass the server root, not an endpoint.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: invalid base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	c := &Client{
		base:   strings.TrimRight(u.String(), "/") + api.PathPrefix,
		httpc:  &http.Client{},
		header: make(http.Header),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the resolved endpoint prefix (server root + /api/v1).
func (c *Client) BaseURL() string { return c.base }

// roundTrip runs one HTTP exchange — retried under the client's retry
// policy when the server sheds the request — and returns the final status
// and raw body; err is non-nil only for transport-level failures.
func (c *Client) roundTrip(ctx context.Context, method, path string, in any) (int, []byte, error) {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return 0, nil, fmt.Errorf("client: encoding request: %w", err)
		}
	}
	for attempt := 0; ; attempt++ {
		if err := c.breakerAllow(ctx, method, path); err != nil {
			return 0, nil, err
		}
		status, raw, header, err := c.exchange(ctx, method, path, payload)
		if err != nil {
			return status, raw, err
		}
		c.breakerRecord(status)
		if !c.retry.retryable(status, attempt) {
			return status, raw, nil
		}
		if err := c.retry.wait(ctx, header.Get("Retry-After"), attempt); err != nil {
			return status, raw, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
	}
}

// exchange runs exactly one HTTP exchange.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte) (int, []byte, http.Header, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, raw, resp.Header, nil
}

// newRequest builds one request with the client's standing headers
// (tenant, priority) applied.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	for k, vs := range c.header {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// do runs one JSON exchange. A non-2xx status with a structured body comes
// back as *api.Error (HTTPStatus set, Unwrap mapping the code to its
// sentinel); out may be nil to discard the body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	status, raw, err := c.roundTrip(ctx, method, path, in)
	if err != nil {
		return err
	}
	if status < 200 || status >= 300 {
		return decodeError(status, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// decodeError converts a non-2xx body into an *api.Error. Every JSON-API
// failure carries {"error", "code"}; anything else (a proxy in the way, a
// non-Prism server) degrades to a generic error with the body excerpt.
func decodeError(status int, raw []byte) error {
	var e api.Error
	if err := json.Unmarshal(raw, &e); err == nil && e.Message != "" {
		e.HTTPStatus = status
		return &e
	}
	excerpt := strings.TrimSpace(string(raw))
	if len(excerpt) > 200 {
		excerpt = excerpt[:200] + "..."
	}
	return fmt.Errorf("client: server returned status %d: %s", status, excerpt)
}

// Datasets lists the databases registered on the server
// (GET /api/v1/datasets).
func (c *Client) Datasets(ctx context.Context) ([]string, error) {
	var out api.DatasetsResponse
	if err := c.do(ctx, http.MethodGet, "/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out.Datasets, nil
}

// SampleRows previews up to limit rows of one source table
// (GET /api/v1/sample; limit <= 0 uses the server default). Cells are the
// server's rendered values, exactly as mapping result previews show them.
func (c *Client) SampleRows(ctx context.Context, database, table string, limit int) ([][]string, error) {
	q := url.Values{"db": {database}, "table": {table}}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var out api.SampleResponse
	if err := c.do(ctx, http.MethodGet, "/sample?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// Metrics fetches the server's Prometheus text exposition
// (GET /api/v1/metrics) and returns the body verbatim: round and
// validation counters, admission and pool state, per-tenant aggregates
// and peak-memory gauges. The format is Prometheus text 0.0.4, so the
// string can be re-served to a scraper or parsed line by line.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	status, raw, err := c.roundTrip(ctx, http.MethodGet, api.MetricsPath, nil)
	if err != nil {
		return "", err
	}
	if status < 200 || status >= 300 {
		return "", decodeError(status, raw)
	}
	return string(raw), nil
}

// Discover runs one blocking discovery round (POST /api/v1/discover). A
// failed round (422) returns both the partial response and the round error
// — mirroring Engine.Discover, which returns its partial report alongside
// the error.
func (c *Client) Discover(ctx context.Context, req api.DiscoverRequest) (*api.DiscoverResponse, error) {
	return c.discoverExchange(ctx, "/discover", req)
}

// discoverExchange posts a round request and decodes the DiscoverResponse
// contract shared by /discover and session refines: failed rounds (and
// rejected requests on these endpoints) carry the error inside the
// response body, which is surfaced as an *api.Error alongside whatever
// partial statistics came with it.
func (c *Client) discoverExchange(ctx context.Context, path string, req any) (*api.DiscoverResponse, error) {
	status, raw, err := c.roundTrip(ctx, http.MethodPost, path, req)
	if err != nil {
		return nil, err
	}
	var out api.DiscoverResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		if status < 200 || status >= 300 {
			return nil, decodeError(status, raw)
		}
		return nil, fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	if out.Error != "" {
		return &out, &api.Error{Message: out.Error, Code: out.Code, HTTPStatus: status}
	}
	if status < 200 || status >= 300 {
		return nil, decodeError(status, raw)
	}
	return &out, nil
}

// StreamEvent is one element of a remote DiscoverStream, mirroring
// prism.StreamEvent over the wire: a phase marker, a progress update, an
// incrementally delivered mapping, or the final result. Kind and Progress
// are the api types that prism.EventKind and prism.Progress name.
type StreamEvent struct {
	Kind     api.EventKind
	Progress api.Progress
	// Mapping is set on EventMapping.
	Mapping *api.Mapping
	// Result and Err are set on EventDone. After a failed round Result is
	// the partial response and Err the round error.
	Result *api.DiscoverResponse
	Err    error
}

// DiscoverStream runs one discovery round incrementally
// (POST /api/v1/discover/stream, NDJSON): the returned channel yields
// phase markers, validation progress and each confirmed mapping as soon
// as the server pushes it, ending with one EventDone event, after which
// the channel is closed — the same protocol as Engine.DiscoverStream.
// Cancelling ctx abandons the round (the server aborts it mid-validation);
// the stream then ends with an EventDone carrying the transport error.
// Invalid requests (unknown database, malformed constraints) fail fast on
// the call itself.
func (c *Client) DiscoverStream(ctx context.Context, req api.DiscoverRequest) (<-chan StreamEvent, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		if err := c.breakerAllow(ctx, http.MethodPost, "/discover/stream"); err != nil {
			return nil, err
		}
		httpReq, err := c.newRequest(ctx, http.MethodPost, "/discover/stream", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		resp, err = c.httpc.Do(httpReq)
		if err != nil {
			return nil, fmt.Errorf("client: POST /discover/stream: %w", err)
		}
		c.breakerRecord(resp.StatusCode)
		if resp.StatusCode == http.StatusOK {
			break
		}
		// A shed stream (429 before any event) is retried like any other
		// shed exchange — the server did no round work yet.
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !c.retry.retryable(resp.StatusCode, attempt) {
			return nil, decodeError(resp.StatusCode, raw)
		}
		if err := c.retry.wait(ctx, resp.Header.Get("Retry-After"), attempt); err != nil {
			return nil, fmt.Errorf("client: POST /discover/stream: %w", err)
		}
	}

	out := make(chan StreamEvent)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sawDone := false
		scanner := bufio.NewScanner(resp.Body)
		// Mapping lines carry result previews; allow generously sized lines.
		scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for scanner.Scan() {
			line := bytes.TrimSpace(scanner.Bytes())
			if len(line) == 0 {
				continue
			}
			var wire api.StreamEvent
			if err := json.Unmarshal(line, &wire); err != nil {
				emit(ctx, out, StreamEvent{Kind: api.EventDone,
					Err: fmt.Errorf("client: decoding stream event: %w", err)})
				return
			}
			ev := decodeStreamEvent(wire)
			if ev.Kind == api.EventDone {
				sawDone = true
			}
			if !emit(ctx, out, ev) {
				return
			}
			if sawDone {
				return
			}
		}
		// The stream ended without a done event: the connection dropped or
		// the context was cancelled mid-round. A caller-side cancellation
		// surfaces as the context error; anything else is a truncation the
		// caller did not ask for and wraps the typed ErrStreamTruncated.
		err := scanner.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		if ctx.Err() != nil {
			err = ctx.Err()
		} else {
			err = fmt.Errorf("%w: %v", ErrStreamTruncated, err)
		}
		emit(ctx, out, StreamEvent{Kind: api.EventDone,
			Err: fmt.Errorf("client: stream ended early: %w", err)})
	}()
	return out, nil
}

// emit delivers ev unless the consumer is gone (context cancelled).
func emit(ctx context.Context, out chan<- StreamEvent, ev StreamEvent) bool {
	select {
	case out <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}

// decodeStreamEvent converts a wire event into the library-shaped form.
func decodeStreamEvent(wire api.StreamEvent) StreamEvent {
	ev := StreamEvent{
		Kind: api.EventKind(wire.Event),
		Progress: api.Progress{
			CandidatesEnumerated: wire.Candidates,
			FiltersGenerated:     wire.Filters,
			Validations:          wire.Validations,
			Implied:              wire.Implied,
			Confirmed:            wire.Confirmed,
			Pruned:               wire.Pruned,
			Unresolved:           wire.Unresolved,
			Elapsed:              time.Duration(wire.ElapsedMS) * time.Millisecond,
			TimeRemaining:        time.Duration(wire.RemainingMS) * time.Millisecond,
		},
		Mapping: wire.Mapping,
		Result:  wire.Result,
	}
	if ev.Kind == api.EventDone && wire.Result != nil {
		ev.Err = wire.Result.Err()
	}
	return ev
}

// Session is a remote refinement session (the wire counterpart of
// prism.Session): it carries constraint state across rounds on the server,
// whose filter-outcome cache makes refined rounds re-validate only what
// changed. Idle sessions are evicted server-side after the TTL reported
// by Info; a refine against an evicted session fails with
// prism.ErrUnknownSession.
type Session struct {
	c  *Client
	id string
	db string
}

// CreateSession opens a refinement session over the named database
// (POST /api/v1/session).
func (c *Client) CreateSession(ctx context.Context, database string) (*Session, error) {
	var out api.SessionResponse
	if err := c.do(ctx, http.MethodPost, "/session", api.SessionCreateRequest{Database: database}, &out); err != nil {
		return nil, err
	}
	return &Session{c: c, id: out.SessionID, db: out.Database}, nil
}

// ID returns the server-assigned session id; Database the session's source
// database.
func (s *Session) ID() string       { return s.id }
func (s *Session) Database() string { return s.db }

// Refine runs one session round (POST /api/v1/session/{id}/refine): a full
// specification (first round, or a reset) or a delta against the current
// constraints. Like Discover, a failed round returns the partial response
// alongside the error.
func (s *Session) Refine(ctx context.Context, req api.RefineRequest) (*api.DiscoverResponse, error) {
	return s.c.discoverExchange(ctx, "/session/"+url.PathEscape(s.id)+"/refine", req)
}

// Info returns the session's rounds and lifetime cache counters
// (GET /api/v1/session/{id}).
func (s *Session) Info(ctx context.Context) (*api.SessionResponse, error) {
	var out api.SessionResponse
	if err := s.c.do(ctx, http.MethodGet, "/session/"+url.PathEscape(s.id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close ends the session on the server (DELETE /api/v1/session/{id});
// closing an already-evicted session reports prism.ErrUnknownSession.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/session/"+url.PathEscape(s.id), nil, nil)
}

package api

// The wire error contract. Every failure of the JSON API is a structured
// body carrying a human-readable message and a machine-readable code —
// never a bare status page — and every code maps to a Go sentinel error,
// so a client-side errors.Is works exactly like it does against the
// in-process library.

import (
	"errors"

	"prism/internal/sentinel"
)

// Sentinel errors of the wire API; prism re-exports them. The ones the
// engine and the admission tier raise are defined in internal/sentinel, a
// leaf, so naming them here links neither the engine nor the server tier.
var (
	// ErrUnknownDatabase reports a database name no engine is registered
	// under (wire code "unknown_database").
	ErrUnknownDatabase = errors.New("prism: unknown database")
	// ErrUnknownSession reports an unknown or expired refinement-session id
	// (wire code "unknown_session").
	ErrUnknownSession = errors.New("prism: unknown or expired session")
	// ErrInvalidRequest reports a request that parsed but failed
	// validation — e.g. a non-positive sample limit (wire code
	// "invalid_request").
	ErrInvalidRequest = errors.New("prism: invalid request")
	// ErrOverloaded is the admission controller's shed sentinel: the
	// server is over its concurrency budget and rejected the request
	// (HTTP 429 with a Retry-After hint, wire code "overloaded").
	ErrOverloaded = sentinel.ErrOverloaded
	// ErrDraining is the admission controller's shutdown sentinel: the
	// server is draining and admits no new rounds (HTTP 503, wire code
	// "draining").
	ErrDraining = sentinel.ErrDraining
	// ErrInternal is the sentinel for a bug caught inside prism —
	// typically a recovered panic — that aborted one round while leaving
	// the process healthy (HTTP 500, wire code "internal").
	ErrInternal = sentinel.ErrInternal
)

// Wire error codes. The set is append-only within a version; a retired code
// ("unknown_executor") is never reused.
const (
	CodeBadRequest       = "bad_request"
	CodeInvalidRequest   = "invalid_request"
	CodeUnknownDatabase  = "unknown_database"
	CodeUnknownTable     = "unknown_table"
	CodeUnknownSession   = "unknown_session"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeInternal         = "internal"
)

// Error is the uniform structured error body of the JSON API:
// {"error": ..., "code": ...}. The client returns *Error values whose
// Unwrap exposes the sentinel for the code, so
// errors.Is(err, prism.ErrUnknownDatabase) works across the wire.
type Error struct {
	// Message is the human-readable error text (JSON field "error").
	Message string `json:"error"`
	// Code classifies the failure; see the Code* constants.
	Code string `json:"code"`
	// HTTPStatus is the response status the client observed (0 when the
	// Error was not produced by an HTTP exchange). It is not part of the
	// wire body.
	HTTPStatus int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Message + " (" + e.Code + ")"
}

// Unwrap maps the wire code back to its sentinel, making errors.Is against
// prism.ErrUnknownDatabase, prism.ErrUnknownTable and
// prism.ErrUnknownSession work on client-side errors. Codes without a
// sentinel (bad_request, ...) unwrap to nil.
func (e *Error) Unwrap() error { return SentinelForCode(e.Code) }

// codeSentinels is the one table between wire codes and sentinel errors, in
// the order CodeForError tries them.
var codeSentinels = []struct {
	code string
	err  error
}{
	{CodeUnknownDatabase, ErrUnknownDatabase},
	{CodeUnknownTable, sentinel.ErrUnknownTable},
	{CodeUnknownSession, ErrUnknownSession},
	{CodeInvalidRequest, ErrInvalidRequest},
	{CodeOverloaded, sentinel.ErrOverloaded},
	{CodeDraining, sentinel.ErrDraining},
	{CodeInternal, sentinel.ErrInternal},
}

// CodeForError classifies an error for the structured JSON error
// responses: unknown names are told apart from malformed requests so
// clients can react (retry with a listed dataset, drop a stale session id,
// ...) instead of parsing error prose.
func CodeForError(err error) string {
	for _, cs := range codeSentinels {
		if errors.Is(err, cs.err) {
			return cs.code
		}
	}
	return CodeBadRequest
}

// SentinelForCode returns the sentinel error a wire code stands for, or
// nil for codes without one.
func SentinelForCode(code string) error {
	for _, cs := range codeSentinels {
		if cs.code == code {
			return cs.err
		}
	}
	return nil
}

package api

// The wire error contract. Every failure of the JSON API is a structured
// body carrying a human-readable message and a machine-readable code —
// never a bare status page — and every code maps to a Go sentinel error,
// so a client-side errors.Is works exactly like it does against the
// in-process library.

import (
	"errors"

	"prism/internal/exec"
	"prism/internal/fault"
	"prism/internal/serve"
)

// Sentinel errors of the wire API. ErrUnknownDatabase is the canonical
// definition re-exported as prism.ErrUnknownDatabase; the table sentinel
// lives in the exec package and is re-exported as prism.ErrUnknownTable;
// the admission sentinels (ErrOverloaded, ErrDraining) live in the serve
// package.
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
	// ErrOverloaded re-exports the admission controller's shed sentinel:
	// the server is over its concurrency budget and rejected the request
	// (HTTP 429 with a Retry-After hint, wire code "overloaded").
	ErrOverloaded = serve.ErrOverloaded
	// ErrDraining re-exports the admission controller's shutdown
	// sentinel: the server is draining and admits no new rounds (HTTP
	// 503, wire code "draining").
	ErrDraining = serve.ErrDraining
	// ErrInternal re-exports the sentinel for a bug caught inside
	// prism — typically a recovered panic — that aborted one round
	// while leaving the process healthy (HTTP 500, wire code
	// "internal").
	ErrInternal = fault.ErrInternal
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

// CodeForError classifies an error for the structured JSON error
// responses: unknown names are told apart from malformed requests so
// clients can react (retry with a listed dataset, drop a stale session id,
// ...) instead of parsing error prose.
func CodeForError(err error) string {
	switch {
	case errors.Is(err, ErrUnknownDatabase):
		return CodeUnknownDatabase
	case errors.Is(err, exec.ErrUnknownTable):
		return CodeUnknownTable
	case errors.Is(err, ErrUnknownSession):
		return CodeUnknownSession
	case errors.Is(err, ErrInvalidRequest):
		return CodeInvalidRequest
	case errors.Is(err, serve.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, serve.ErrDraining):
		return CodeDraining
	case errors.Is(err, fault.ErrInternal):
		return CodeInternal
	default:
		return CodeBadRequest
	}
}

// SentinelForCode returns the sentinel error a wire code stands for, or
// nil for codes without one.
func SentinelForCode(code string) error {
	switch code {
	case CodeUnknownDatabase:
		return ErrUnknownDatabase
	case CodeUnknownTable:
		return exec.ErrUnknownTable
	case CodeUnknownSession:
		return ErrUnknownSession
	case CodeInvalidRequest:
		return ErrInvalidRequest
	case CodeOverloaded:
		return serve.ErrOverloaded
	case CodeDraining:
		return serve.ErrDraining
	case CodeInternal:
		return fault.ErrInternal
	default:
		return nil
	}
}

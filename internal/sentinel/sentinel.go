// Package sentinel holds the errors that cross layers: the engine and the
// admission tier raise them, and the wire layer maps them to codes. It is a
// leaf, so naming one links no layer that raises it.
package sentinel

import "errors"

var (
	// ErrUnknownTable: a request named a table the source database does
	// not have (wire code "unknown_table").
	ErrUnknownTable = errors.New("exec: unknown table")
	// ErrOverloaded: admission control shed the request; back off and
	// retry (HTTP 429 with a Retry-After hint).
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrDraining: the server is shutting down and admits no new rounds;
	// queued requests are flushed with it (HTTP 503).
	ErrDraining = errors.New("serve: draining, not admitting new rounds")
	// ErrInternal: prism caught a bug in itself, typically a recovered
	// panic, and aborted only the round that hit it (HTTP 500).
	ErrInternal = errors.New("prism: internal error")
)

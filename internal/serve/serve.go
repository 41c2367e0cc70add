// Package serve is the multi-tenant serving tier around the discovery
// engine: the machinery that lets one process take heavy concurrent
// traffic without falling over, independent of how fast a single round is.
//
// It has three parts, each usable on its own:
//
//   - Controller — an admission controller with a bounded global budget of
//     concurrent rounds, per-tenant budgets, a weighted-fair queue across
//     request priorities (interactive session rounds over one-shot
//     discovers over bench/batch traffic), and load shedding: once the
//     queue exceeds a deadline-aware depth a request is rejected
//     immediately with sentinel.ErrOverloaded rather than queued to time out.
//   - Sink — a backpressure-aware writer for streaming responses: events
//     are pumped to the consumer through a bounded buffer under a write
//     deadline, so a slow or stalled consumer stalls (and cancels, via the
//     caller's OnStall hook) only its own round instead of pinning the
//     round's memory for as long as the socket stays open.
//   - Health — the readiness tracker behind /api/v1/readyz: draining,
//     repeated failures of a named source, or a sustained shed rate mark
//     the server not ready.
//
// The HTTP wiring (tenant and priority headers, the 429 + Retry-After
// envelope, the stats endpoint and its per-class latency histograms)
// lives in prism/internal/server; the wire contract in prism/api.
package serve

package server

// Robustness surface of the HTTP tier: the handler panic barrier (a
// panicking handler answers a structured 500 and the process keeps
// serving), the liveness/readiness probes, and the HTTP-layer fault
// points.

import (
	"fmt"
	"net/http"

	"prism/api"
	"prism/internal/fault"
)

var (
	// faultHandler fires at the top of every wrapped handler. Armed
	// with ModeError it fails requests with a structured 500; with
	// ModePanic it exercises the handler panic barrier.
	faultHandler = fault.Register("server.handler")
	// faultStreamCut fires per streamed event in the discover-stream
	// loop; armed, it drops the connection mid-stream without a done
	// event — the truncation clients must detect.
	faultStreamCut = fault.Register("server.stream.cut")
)

// recovered is the panic barrier wrapping every route: a panic below it
// is counted, converted to a structured 500 {"error","code":"internal"}
// (when the response header is still writable) and the process and
// other requests stay healthy.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				// Best-effort: if the handler already started a streaming
				// body the 500 cannot be delivered, but the connection
				// still terminates and the server survives.
				writeAPIError(w, http.StatusInternalServerError, api.CodeInternal,
					fmt.Sprintf("%v (recovered: %v)", api.ErrInternal, rec))
			}
		}()
		if err := faultHandler.Hit(); err != nil {
			writeAPIError(w, http.StatusInternalServerError, api.CodeInternal,
				fmt.Sprintf("%v: %v", api.ErrInternal, err))
			return
		}
		h(w, r)
	}
}

// handleHealthz serves GET /api/v1/healthz: liveness. Any response at
// all means the process is alive, so the body is always 200 "ok" —
// readiness questions belong to readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, api.HealthzResponse{Status: "ok"})
}

// handleReadyz serves GET /api/v1/readyz: 200 while the server should
// receive traffic, 503 with the degradation reasons while it should
// not (draining, repeated engine failures, sustained shed).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET")
		return
	}
	ready, reasons := s.health.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, api.ReadyzResponse{Ready: ready, Reasons: reasons})
}

package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"prism"
	"prism/api"
)

// sessionStore keeps the server's live refinement sessions, evicting by
// idle TTL and, beyond MaxSessions, by least recent use. Eviction runs
// opportunistically on every access, so the store needs no background
// goroutine and an idle server holds no timers.
type sessionStore struct {
	mu       sync.Mutex
	ttl      time.Duration
	max      int
	now      func() time.Time // injected by tests
	sessions map[string]*serverSession
}

// serverSession binds one prism.Session to its HTTP identity.
type serverSession struct {
	id       string
	database string
	sess     *prism.Session
	created  time.Time
	lastUsed time.Time
}

func newSessionStore(ttl time.Duration, max int) *sessionStore {
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	if max <= 0 {
		max = 64
	}
	return &sessionStore{
		ttl:      ttl,
		max:      max,
		now:      time.Now,
		sessions: make(map[string]*serverSession),
	}
}

// evictLocked drops expired sessions, then the least recently used ones
// beyond the capacity. Callers hold st.mu.
func (st *sessionStore) evictLocked() {
	now := st.now()
	for id, ss := range st.sessions {
		if now.Sub(ss.lastUsed) > st.ttl {
			ss.sess.Close()
			delete(st.sessions, id)
		}
	}
	if len(st.sessions) <= st.max {
		return
	}
	byAge := make([]*serverSession, 0, len(st.sessions))
	for _, ss := range st.sessions {
		byAge = append(byAge, ss)
	}
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].lastUsed.Before(byAge[j].lastUsed) })
	for _, ss := range byAge[:len(st.sessions)-st.max] {
		ss.sess.Close()
		delete(st.sessions, ss.id)
	}
}

// add registers a new session and returns its id.
func (st *sessionStore) add(database string, sess *prism.Session) *serverSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked()
	ss := &serverSession{
		id:       newSessionID(),
		database: database,
		sess:     sess,
		created:  st.now(),
		lastUsed: st.now(),
	}
	st.sessions[ss.id] = ss
	// A full store evicts its least recently used session to admit the new
	// one, so creates never fail under load.
	st.evictLocked()
	return ss
}

// get returns the session and refreshes its recency.
func (st *sessionStore) get(id string) (*serverSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked()
	ss, ok := st.sessions[id]
	if ok {
		ss.lastUsed = st.now()
	}
	return ss, ok
}

// remove closes and forgets the session.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.sessions[id]
	if ok {
		ss.sess.Close()
		delete(st.sessions, id)
	}
	return ok
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------------
// Session JSON API
// ---------------------------------------------------------------------------

// requestDelta converts the transport form into the engine's delta type.
func requestDelta(d *api.Delta) prism.Delta {
	out := prism.Delta{
		RemoveSamples: d.RemoveSamples,
		AddSamples:    d.AddSamples,
	}
	for _, u := range d.UpdateCells {
		out.UpdateCells = append(out.UpdateCells, prism.CellUpdate{Row: u.Row, Col: u.Col, Cell: u.Cell})
	}
	for _, m := range d.SetMetadata {
		out.SetMetadata = append(out.SetMetadata, prism.MetadataUpdate{Col: m.Col, Cell: m.Cell})
	}
	return out
}

func (s *Server) sessionResponse(ss *serverSession) api.SessionResponse {
	st := ss.sess.CacheStats()
	return api.SessionResponse{
		SessionID: ss.id,
		Database:  ss.database,
		Rounds:    ss.sess.Rounds(),
		TTLMs:     s.sessions.ttl.Milliseconds(),
		Cache:     api.CacheStats{Hits: st.Hits, Misses: st.Misses, Stores: st.Stores},
	}
}

// handleSessionCreate serves POST /api/v1/session: it opens a refinement
// session over the named database and returns its id. Rounds then go to
// POST /api/v1/session/{id}/refine; idle sessions are evicted after
// Server.SessionTTL.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req api.SessionCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	eng, err := s.engine(req.Database)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	// The session must outlive this request — its lifetime is the store's
	// TTL window, not the HTTP exchange — so it is not tied to r.Context().
	ss := s.sessions.add(req.Database, eng.NewSession(context.Background()))
	writeJSON(w, http.StatusOK, s.sessionResponse(ss))
}

// handleSessionInfo serves GET /api/v1/session/{id}.
func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeAPIError(w, http.StatusNotFound, api.CodeUnknownSession, "unknown or expired session "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.sessionResponse(ss))
}

// handleSessionDelete serves DELETE /api/v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		writeAPIError(w, http.StatusNotFound, api.CodeUnknownSession, "unknown or expired session "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, api.SessionCloseResponse{Closed: true})
}

// handleSessionRefine serves POST /api/v1/session/{id}/refine: one discovery
// round of the session, either over a full specification or over a delta
// against the session's current constraints. The response is an
// api.DiscoverResponse whose cache counters report how many validations the
// session's filter-outcome cache saved.
func (s *Server) handleSessionRefine(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeAPIError(w, http.StatusNotFound, api.CodeUnknownSession, "unknown or expired session "+r.PathValue("id"))
		return
	}
	var req api.RefineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	base := api.DiscoverRequest{
		Database:   ss.database,
		Policy:     req.Policy,
		MaxResults: req.MaxResults,
		TimeoutMs:  req.TimeoutMs,
	}
	opts, err := s.roundOptions(base)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, errorCode(err), err.Error())
		return
	}
	rd := &round{opts: opts}
	ctx, cancel := rd.requestContext(r.Context())
	defer cancel()

	// Failed rounds still commit the session's refined specification (the
	// engine session applies the delta before the round runs), so error
	// responses carry the session identity and committed round count too —
	// remote clients resync on them instead of re-applying their delta.
	writeRoundError := func(status int, report *prism.Report, err error, spec *prism.Spec) {
		s.recordRoundMetrics(ctx, report)
		resp := s.discoverResponse(base, report, err, spec, false)
		resp.SessionID = ss.id
		resp.Round = ss.sess.Rounds()
		writeJSON(w, status, resp)
	}

	var report *prism.Report
	hasFullSpec := req.Spec != nil || len(req.Samples) > 0 || req.NumColumns > 0
	switch {
	case hasFullSpec && req.Delta != nil:
		// Ambiguous: applying one and silently dropping the other would
		// make the client's edit vanish behind a 200.
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest,
			"send either a full specification (numColumns + samples, or a structured spec) or a delta, not both")
		return
	case hasFullSpec:
		spec, err := specFromRequest(req.Spec, req.NumColumns, req.Samples, req.Metadata)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
		report, err = ss.sess.Discover(ctx, spec, opts)
		if err != nil {
			writeRoundError(http.StatusUnprocessableEntity, report, err, spec)
			return
		}
	case req.Delta != nil:
		report, err = ss.sess.Refine(ctx, requestDelta(req.Delta), opts)
		if err != nil {
			status := http.StatusUnprocessableEntity
			if report == nil {
				// The delta itself was rejected; no round ran.
				status = http.StatusBadRequest
			}
			writeRoundError(status, report, err, ss.sess.Spec())
			return
		}
	default:
		writeAPIError(w, http.StatusBadRequest, api.CodeBadRequest,
			"a refine round needs either a full specification (numColumns + samples, or a structured spec) or a delta")
		return
	}

	s.recordRoundMetrics(ctx, report)
	resp := s.discoverResponse(base, report, nil, ss.sess.Spec(), false)
	resp.SessionID = ss.id
	resp.Round = ss.sess.Rounds()
	writeJSON(w, http.StatusOK, resp)
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pcqe/internal/lineage"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
)

// maxBodyBytes bounds request bodies; a query is text, not a bulk load.
const maxBodyBytes = 1 << 20

// wireError is the JSON error envelope.
type wireError struct {
	Error string `json:"error"`
}

// writeJSON encodes v with the given status. Encoding failures are
// logged into the metrics rather than half-written: by the time Encode
// fails the header is gone, so the counter is the only honest record.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.metrics.Counter("server.encode.errors").Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.metrics.Counter("server.errors." + strconv.Itoa(status)).Inc()
	s.writeJSON(w, status, wireError{Error: err.Error()})
}

// readJSON decodes a bounded JSON body, rejecting unknown fields so a
// client typo ("min_fracton") fails loudly instead of silently using
// the default.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decoding request body: %w", err)
	}
	return nil
}

// authed resolves the request's bearer token to a session; a nil
// return means the response has been written.
func (s *Server) authed(w http.ResponseWriter, r *http.Request) *Session {
	token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if token == "" || token == r.Header.Get("Authorization") {
		s.writeError(w, http.StatusUnauthorized, errors.New("server: missing bearer token"))
		return nil
	}
	sess := s.lookup(token)
	if sess == nil {
		s.writeError(w, http.StatusUnauthorized, errors.New("server: unknown or closed session"))
		return nil
	}
	return sess
}

// observe records one handler invocation's latency.
func (s *Server) observe(handler string, start time.Time) {
	s.metrics.Histogram("server.handler."+handler+".seconds", obs.LatencyBuckets).Observe(time.Since(start).Seconds())
}

// handleSession is the handshake: POST opens a session for a
// ⟨user, purpose⟩ pair (401 when no policy covers it, 503 while
// draining or at the session cap), DELETE closes one.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	defer s.observe("session", time.Now())
	switch r.Method {
	case http.MethodPost:
		var req HandshakeRequest
		if err := readJSON(w, r, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		sess, err := s.Open(req.User, req.Purpose)
		switch {
		case err == nil:
		case errors.Is(err, ErrDraining) || errors.Is(err, ErrSessionLimit):
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusServiceUnavailable, err)
			return
		case errors.Is(err, ErrNoPolicy):
			s.writeError(w, http.StatusUnauthorized, err)
			return
		default:
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Budget != nil {
			b, err := effectiveBudget(sess.budget, req.Budget, s.cfg.MaxBudget)
			if err != nil {
				s.Close(sess.token)
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
			sess.budget = b
		}
		s.writeJSON(w, http.StatusCreated, HandshakeResponse{
			Token: sess.token, Beta: wireConf(sess.beta), PolicyApplied: sess.policyApplied,
		})
	case http.MethodDelete:
		sess := s.authed(w, r)
		if sess == nil {
			return
		}
		s.Close(sess.token)
		s.writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
	default:
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s not allowed", r.Method))
	}
}

// handleQuery evaluates one query under the session identity on one
// pinned MVCC snapshot. The full robustness envelope applies here:
// per-session in-flight limit (429), non-blocking worker-pool
// admission (503 + Retry-After), budget clamping, and the client's
// disconnect context flowing into the engine so an abandoned request
// degrades instead of burning the lineage phase to completion.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	defer s.observe("query", time.Now())
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s not allowed", r.Method))
		return
	}
	sess := s.authed(w, r)
	if sess == nil {
		return
	}
	var req QueryRequest
	if err := readJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("server: empty query"))
		return
	}
	budget, err := effectiveBudget(sess.budget, req.Budget, s.cfg.MaxBudget)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !sess.acquire(s.cfg.maxInFlight()) {
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: session at its in-flight limit %d", s.cfg.maxInFlight()))
		return
	}
	defer sess.releaseSlot()
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	// r.Context() is canceled when the client disconnects; the engine
	// polls it through every phase and degrades or aborts cleanly.
	resp, err := s.engine.EvaluateContext(r.Context(), sess.request(req.Query, req.MinFraction, budget))
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			// The client is gone; nobody reads this response. Count the
			// abandonment and let the connection close.
			s.metrics.Counter("server.requests.abandoned").Inc()
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, lineage.ErrTooManyShared) {
			// Well-formed, but its result lineage is beyond exact evaluation.
			status = http.StatusUnprocessableEntity
		}
		s.writeError(w, status, err)
		return
	}
	if ctxErr := r.Context().Err(); ctxErr != nil {
		// The client hung up after evaluation but before the write:
		// nobody reads this response, and stashing its proposal would
		// leak plans no one was shown. Count it and drop it.
		s.metrics.Counter("server.requests.abandoned").Inc()
		return
	}
	propID := ""
	if resp.Proposal != nil {
		propID = sess.stash(resp.Proposal)
	}
	s.metrics.Counter("server.queries").Inc()
	s.writeJSON(w, http.StatusOK, toWire(resp, propID))
}

// handleExplain plans the query at a pinned snapshot version without
// evaluating it. Planning runs every IN (SELECT …) subquery, so an
// explain takes a worker slot like a query: a saturated or draining
// server answers 503 + Retry-After, and Drain waits for it.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	defer s.observe("explain", time.Now())
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s not allowed", r.Method))
		return
	}
	if sess := s.authed(w, r); sess == nil {
		return
	}
	var req ExplainRequest
	if err := readJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	stmt, err := sql.Parse(req.Query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := s.engine.Catalog().Snapshot()
	defer snap.Release()
	op, info, err := sql.PlanDetailedAt(s.engine.Catalog(), stmt, snap.Version())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ExplainResponse{
		Plan:        relation.ExplainAnnotated(op, info.Notes),
		LineageHint: info.LineageHint,
		Version:     snap.Version(),
	})
}

// handleApply spends a stashed proposal. The handle is session-local
// and single-use; on failure (a mid-apply fault rolled the transaction
// back) the handle is consumed too — the client re-queries for a fresh
// plan rather than retrying a stale one.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	defer s.observe("apply", time.Now())
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s not allowed", r.Method))
		return
	}
	sess := s.authed(w, r)
	if sess == nil {
		return
	}
	var req ApplyRequest
	if err := readJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	prop := sess.take(req.ProposalID)
	if prop == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("server: unknown proposal %q for this session", req.ProposalID))
		return
	}
	ev, err := s.engine.ApplyOutcome(prop)
	if err != nil {
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.metrics.Counter("server.applies").Inc()
	s.writeJSON(w, http.StatusOK, ApplyResponse{
		Applied: true, Cost: ev.Cost, Increments: len(ev.Increments), Version: ev.CommitVersion,
	})
}

// handleAudit returns the tail of the audit journal scoped to the
// session's user: a session reviews its own identity's trail, not the
// whole daemon's.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	defer s.observe("audit", time.Now())
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s not allowed", r.Method))
		return
	}
	sess := s.authed(w, r)
	if sess == nil {
		return
	}
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad limit %q", q))
			return
		}
		limit = n
	}
	log := s.engine.Audit()
	if log == nil {
		s.writeJSON(w, http.StatusOK, AuditResponse{Events: []WireAuditEvent{}})
		return
	}
	events, total := log.UserTail(sess.user, limit)
	mine := make([]WireAuditEvent, len(events))
	for i, ev := range events {
		mine[i] = WireAuditEvent{
			Seq: ev.Seq, Kind: ev.Kind, Purpose: ev.Purpose, Query: ev.Query,
			Beta: wireConf(ev.Beta), Released: ev.Released, Withheld: ev.Withheld,
			Cost: ev.Cost, Partial: ev.Partial, Detail: ev.Detail,
			ReadVersion: ev.ReadVersion, CommitVersion: ev.CommitVersion,
		}
	}
	s.writeJSON(w, http.StatusOK, AuditResponse{Events: mine, Total: total})
}

// handleHealthz reports liveness and drain state (no auth: load
// balancers probe it).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

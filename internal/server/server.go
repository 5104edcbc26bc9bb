// Package server hosts one shared core.Engine behind an HTTP/JSON wire
// protocol (pcqed). Many concurrent sessions — each authenticated to a
// ⟨user, purpose⟩ pair at handshake — evaluate queries against the same
// catalog, policy store and caches; the engine's MVCC snapshots give
// every request one committed version, its request-scoped solver
// budgets give every session its own allowance, and the policy store's
// β filter is enforced per-connection because a session that no policy
// covers is rejected before it can ask anything.
//
// Robustness envelope: a hard cap on open sessions, a per-session
// in-flight limit, a server-wide worker pool with non-blocking
// admission (saturated → 503 + Retry-After, never queue-and-collapse),
// request solver budgets clamped to a configured ceiling, and a
// graceful drain that stops accepting work, waits for in-flight
// requests under a deadline, and flushes the audit journal to disk.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/strategy"
)

// Defaults for Config zero values.
const (
	DefaultMaxSessions  = 64
	DefaultMaxInFlight  = 4
	DefaultWorkerPool   = 8
	DefaultDrainTimeout = 5 * time.Second
)

// ErrDraining reports that the server is shutting down and accepts no
// new sessions or queries.
var ErrDraining = errors.New("server: draining")

// ErrSessionLimit reports that the handshake was refused because the
// server is at its concurrent-session cap.
var ErrSessionLimit = errors.New("server: session limit reached")

// ErrNoPolicy reports a handshake for a ⟨user, purpose⟩ pair that no
// confidence policy covers (rejected unless Config.AllowUnpolicied).
var ErrNoPolicy = errors.New("server: no confidence policy covers this user and purpose")

// Config tunes the server's robustness envelope. The zero value is
// usable: every field falls back to the package defaults above.
type Config struct {
	// MaxSessions caps concurrently open sessions; the handshake refuses
	// more with 503.
	MaxSessions int
	// MaxInFlight caps concurrent requests per session (429 beyond it) —
	// one misbehaving client cannot occupy the whole worker pool.
	MaxInFlight int
	// WorkerPool caps concurrently evaluating requests server-wide.
	// Admission is non-blocking: a saturated pool answers 503 with
	// Retry-After instead of queueing unboundedly.
	WorkerPool int
	// DefaultBudget is the per-session solver allowance used when a
	// request does not override it (strategy.Budget semantics; zero
	// fields = unlimited).
	DefaultBudget strategy.Budget
	// MaxBudget clamps request budget overrides: for each counter a
	// nonzero ceiling bounds both explicit overrides and "unlimited"
	// requests. Zero fields leave that counter unclamped.
	MaxBudget strategy.Budget
	// DrainTimeout bounds how long Drain waits for in-flight requests.
	DrainTimeout time.Duration
	// JournalPath, when non-empty, is where Drain flushes the audit
	// journal as JSONL (atomic tmp+rename).
	JournalPath string
	// AllowUnpolicied admits sessions whose ⟨user, purpose⟩ no
	// confidence policy covers (the engine then releases every row —
	// policy.Store is open by default). Off by default: a daemon
	// enforcing confidence policies should refuse identities it cannot
	// map to a threshold rather than silently release everything.
	AllowUnpolicied bool
}

func (c Config) maxSessions() int {
	if c.MaxSessions > 0 {
		return c.MaxSessions
	}
	return DefaultMaxSessions
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (c Config) workerPool() int {
	if c.WorkerPool > 0 {
		return c.WorkerPool
	}
	return DefaultWorkerPool
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return DefaultDrainTimeout
}

// Server hosts one engine for many sessions. Create with New, expose
// with Handler, stop with Drain.
type Server struct {
	engine  *core.Engine
	cfg     Config
	metrics *obs.Metrics

	// workers is the admission semaphore: one slot per concurrently
	// evaluating request, acquired non-blockingly by the query handler.
	workers chan struct{}

	mu       sync.Mutex
	sessions map[string]*Session
	draining bool
	// inflight counts requests holding worker slots; Drain waits on it.
	inflight sync.WaitGroup
}

// New builds a server around an engine. The engine's attached metrics
// registry (if any) is reused for the server's own instruments so one
// Snapshot covers both layers.
func New(engine *core.Engine, cfg Config) *Server {
	return &Server{
		engine:   engine,
		cfg:      cfg,
		metrics:  engine.Metrics(),
		workers:  make(chan struct{}, cfg.workerPool()),
		sessions: make(map[string]*Session),
	}
}

// Engine exposes the hosted engine (tests and the daemon use it for
// setup and verification).
func (s *Server) Engine() *core.Engine { return s.engine }

// Handler returns the server's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/session", s.handleSession)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/v1/apply", s.handleApply)
	mux.HandleFunc("/v1/audit", s.handleAudit)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return mux
}

// Open starts a session for a ⟨user, purpose⟩ pair. The pair is
// resolved against the policy store at handshake: a pair no policy
// covers is rejected (unless Config.AllowUnpolicied), so the β filter
// is pinned to the connection before the first query. The returned
// session carries the resolved threshold and the session's default
// solver budget.
func (s *Server) Open(user, purpose string) (*Session, error) {
	if user == "" || purpose == "" {
		return nil, fmt.Errorf("server: handshake requires user and purpose, got user=%q purpose=%q", user, purpose)
	}
	beta, applied := s.engine.Policies().Threshold(user, purpose)
	if !applied && !s.cfg.AllowUnpolicied {
		return nil, fmt.Errorf("%w: user %q, purpose %q", ErrNoPolicy, user, purpose)
	}
	token, err := newToken()
	if err != nil {
		return nil, err
	}
	sess := &Session{
		token: token, user: user, purpose: purpose,
		beta: beta, policyApplied: applied,
		budget:    s.cfg.DefaultBudget,
		proposals: make(map[string]*core.Proposal),
		opened:    time.Now(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if len(s.sessions) >= s.cfg.maxSessions() {
		return nil, fmt.Errorf("%w (%d open)", ErrSessionLimit, len(s.sessions))
	}
	s.sessions[token] = sess
	s.metrics.Gauge("server.sessions.open").Set(int64(len(s.sessions)))
	s.metrics.Counter("server.sessions.opened").Inc()
	return sess, nil
}

// Close ends a session; its token stops authenticating. Unknown tokens
// are a no-op (closing twice is fine).
func (s *Server) Close(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[token]; !ok {
		return
	}
	delete(s.sessions, token)
	s.metrics.Gauge("server.sessions.open").Set(int64(len(s.sessions)))
}

// lookup resolves a session token (nil when unknown).
func (s *Server) lookup(token string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

// SessionCount reports the open sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// admit acquires a worker slot without blocking. On reject — the pool is
// saturated or the server draining — it has answered w with 503 +
// Retry-After and the handler just returns. The returned release
// function must be called exactly once.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	reject := func() (func(), bool) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, errors.New("server: worker pool saturated or draining"))
		return nil, false
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return reject()
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	select {
	case s.workers <- struct{}{}:
		var once sync.Once
		return func() {
			once.Do(func() {
				<-s.workers
				s.inflight.Done()
			})
		}, true
	default:
		s.inflight.Done()
		s.metrics.Counter("server.admission.rejected").Inc()
		return reject()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the server down gracefully: stop admitting new sessions
// and queries, wait for in-flight requests up to the configured drain
// deadline (or ctx, whichever ends first), then flush the audit
// journal. It returns the first error: a drain deadline that expired
// with requests still running, or a journal flush failure. Idempotent
// in effect: a second call re-waits and re-flushes.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.metrics.Counter("server.drains").Inc()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	deadline := time.NewTimer(s.cfg.drainTimeout())
	defer deadline.Stop()
	var waitErr error
	select {
	case <-done:
	case <-deadline.C:
		waitErr = fmt.Errorf("server: drain deadline %s expired with requests in flight", s.cfg.drainTimeout())
	case <-ctx.Done():
		waitErr = fmt.Errorf("server: drain canceled: %w", ctx.Err())
	}
	// Flush the journal even when the wait failed: whatever the audit
	// log holds is exactly what compliance wants on disk after a messy
	// shutdown.
	if s.cfg.JournalPath != "" {
		if err := FlushJournal(s.engine.Audit(), s.cfg.JournalPath); err != nil {
			if waitErr != nil {
				return errors.Join(waitErr, err)
			}
			return err
		}
	}
	return waitErr
}

// newToken mints an unguessable session token.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: minting session token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

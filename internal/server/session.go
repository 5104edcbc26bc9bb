package server

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/strategy"
)

// Session is one authenticated connection: a ⟨user, purpose⟩ pair
// resolved to its policy threshold at handshake, a default solver
// budget, an in-flight counter, and the proposals the session has been
// offered (so Apply can only spend what this identity was shown).
type Session struct {
	token   string
	user    string
	purpose string
	// beta and policyApplied are the policy store's answer for the
	// session identity, resolved once at handshake. The engine
	// re-resolves per request (the store is immutable after setup, so
	// the answers agree); the handshake copy exists to reject unpolicied
	// pairs before any query runs and to report β to the client.
	beta          float64
	policyApplied bool
	budget        strategy.Budget
	opened        time.Time

	mu        sync.Mutex
	inflight  int
	queries   int64
	nextProp  int64
	proposals map[string]*core.Proposal
}

// Token returns the session's bearer token.
func (s *Session) Token() string { return s.token }

// User returns the authenticated user.
func (s *Session) User() string { return s.user }

// Purpose returns the session's declared purpose.
func (s *Session) Purpose() string { return s.purpose }

// Beta returns the policy threshold resolved at handshake.
func (s *Session) Beta() float64 { return s.beta }

// PolicyApplied reports whether any policy covered the session pair.
func (s *Session) PolicyApplied() bool { return s.policyApplied }

// acquire reserves one in-flight slot; false means the session is at
// its limit and the request should be answered 429.
func (s *Session) acquire(limit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight >= limit {
		return false
	}
	s.inflight++
	s.queries++
	return true
}

// releaseSlot returns an in-flight slot.
func (s *Session) releaseSlot() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// maxStashed bounds the proposals a session holds: each one pins its
// whole optimization instance and plan, so a session that proposes and
// never applies must not grow without limit.
const maxStashed = 16

func proposalHandle(n int64) string { return "p" + strconv.FormatInt(n, 10) }

// stash records a proposal offered to this session and returns its
// handle. Apply accepts only stashed handles: a session can spend
// exactly the plans its own queries were offered, not a proposal
// another identity negotiated. Only the newest maxStashed handles stay
// valid: handles are issued in sequence, so dropping the one maxStashed
// back evicts oldest-first (a no-op when it was already spent).
func (s *Session) stash(p *core.Proposal) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextProp++
	id := proposalHandle(s.nextProp)
	s.proposals[id] = p
	delete(s.proposals, proposalHandle(s.nextProp-maxStashed))
	return id
}

// take removes and returns a stashed proposal (nil when unknown, spent
// or evicted). The handle is single-use: a plan is bought once.
func (s *Session) take(id string) *core.Proposal {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.proposals[id]
	delete(s.proposals, id)
	return p
}

// request assembles the core request for this session's identity. The
// user and purpose always come from the handshake — the request body
// cannot impersonate another pair — and the solver budget is the
// session default overridden by the (already clamped) effective budget.
func (s *Session) request(query string, minFraction float64, b strategy.Budget) core.Request {
	return core.Request{
		User: s.user, Purpose: s.purpose,
		Query: query, MinFraction: minFraction,
		Timeout:  b.Timeout,
		Workers:  b.Workers,
		MaxNodes: b.MaxNodes, MaxPivots: b.MaxPivots, MaxSteps: b.MaxSteps,
	}
}

// effectiveBudget folds a request's optional budget override into the
// session default and clamps the result to the server ceiling. Zero
// override fields keep the session default; negative fields are
// rejected; a nonzero ceiling bounds both explicit values and
// "unlimited" (a client cannot ask for more than the server allows by
// asking for nothing).
func effectiveBudget(def strategy.Budget, over *WireBudget, max strategy.Budget) (strategy.Budget, error) {
	b := def
	if over != nil {
		if over.Workers < 0 || over.MaxNodes < 0 || over.MaxPivots < 0 || over.MaxSteps < 0 || over.TimeoutMillis < 0 {
			return strategy.Budget{}, fmt.Errorf("server: budget override fields must be non-negative: %+v", *over)
		}
		if over.Workers > 0 {
			b.Workers = over.Workers
		}
		if over.MaxNodes > 0 {
			b.MaxNodes = over.MaxNodes
		}
		if over.MaxPivots > 0 {
			b.MaxPivots = over.MaxPivots
		}
		if over.MaxSteps > 0 {
			b.MaxSteps = over.MaxSteps
		}
		if over.TimeoutMillis > 0 {
			b.Timeout = time.Duration(over.TimeoutMillis) * time.Millisecond
		}
	}
	b.Workers = clampCounter(b.Workers, max.Workers)
	b.MaxNodes = clampCounter(b.MaxNodes, max.MaxNodes)
	b.MaxPivots = clampCounter(b.MaxPivots, max.MaxPivots)
	b.MaxSteps = clampCounter(b.MaxSteps, max.MaxSteps)
	if max.Timeout > 0 && (b.Timeout == 0 || b.Timeout > max.Timeout) {
		b.Timeout = max.Timeout
	}
	return b, nil
}

// clampCounter applies one ceiling: 0 means unclamped; a nonzero
// ceiling bounds both explicit values and unlimited (0) requests.
func clampCounter(v, max int) int {
	if max > 0 && (v == 0 || v > max) {
		return max
	}
	return v
}

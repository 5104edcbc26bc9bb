package server

import (
	"fmt"
	"math"
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
// cannot impersonate another pair — and b is the (already clamped)
// effective budget.
func (s *Session) request(query string, minFraction float64, b strategy.Budget) core.Request {
	return core.Request{User: s.user, Purpose: s.purpose, Query: query, MinFraction: minFraction, Budget: b}
}

// maxTimeoutMillis is the largest timeout_ms a time.Duration holds.
const maxTimeoutMillis = math.MaxInt64 / int64(time.Millisecond)

// effectiveBudget folds a request's optional budget override into the
// session default and clamps the result to the server ceiling, field by
// field (see resolveLimit); a negative override field, or a timeout_ms
// whose nanoseconds would overflow, is rejected.
func effectiveBudget(def strategy.Budget, over *WireBudget, max strategy.Budget) (strategy.Budget, error) {
	var o strategy.Budget
	if over != nil {
		if over.TimeoutMillis > maxTimeoutMillis {
			return strategy.Budget{}, fmt.Errorf("server: budget override: timeout_ms %d exceeds %d, the largest Timeout a duration holds", over.TimeoutMillis, maxTimeoutMillis)
		}
		o = strategy.Budget{
			Timeout: time.Duration(over.TimeoutMillis) * time.Millisecond,
			Workers: over.Workers, MaxNodes: over.MaxNodes, MaxPivots: over.MaxPivots, MaxSteps: over.MaxSteps,
		}
		if err := o.Validate(); err != nil {
			return strategy.Budget{}, fmt.Errorf("server: budget override: %w", err)
		}
	}
	return strategy.Budget{
		Timeout:   resolveLimit(def.Timeout, o.Timeout, max.Timeout),
		Workers:   resolveLimit(def.Workers, o.Workers, max.Workers),
		MaxNodes:  resolveLimit(def.MaxNodes, o.MaxNodes, max.MaxNodes),
		MaxPivots: resolveLimit(def.MaxPivots, o.MaxPivots, max.MaxPivots),
		MaxSteps:  resolveLimit(def.MaxSteps, o.MaxSteps, max.MaxSteps),
	}, nil
}

// resolveLimit resolves one budget field: a zero override keeps the
// session default, and a nonzero ceiling bounds both explicit values and
// "unlimited" (a client cannot ask for more than the server allows by
// asking for nothing).
func resolveLimit[T int | time.Duration](def, over, max T) T {
	v := def
	if over > 0 {
		v = over
	}
	if max > 0 && (v == 0 || v > max) {
		return max
	}
	return v
}

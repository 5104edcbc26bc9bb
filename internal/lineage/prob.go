package lineage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pcqe/internal/conf"
)

// Assignment supplies the probability (confidence) of each base-tuple
// variable. Implementations must return values in [0,1].
type Assignment interface {
	ProbOf(v Var) float64
}

// MapAssignment is an Assignment backed by a map. Missing variables have
// probability 0.
type MapAssignment map[Var]float64

// ProbOf implements Assignment.
func (m MapAssignment) ProbOf(v Var) float64 { return m[v] }

// FuncAssignment adapts a function to the Assignment interface.
type FuncAssignment func(Var) float64

// ProbOf implements Assignment.
func (f FuncAssignment) ProbOf(v Var) float64 { return f(v) }

// ErrTooManyShared is returned by ProbExact when a formula has more shared
// variables than the supplied limit allows; exact Shannon expansion would
// cost 2^shared evaluations.
var ErrTooManyShared = errors.New("lineage: too many shared variables for exact evaluation")

// DefaultSharedLimit bounds the Shannon-expansion depth of Prob. 2^24 leaf
// evaluations is far beyond anything the workloads here produce; typical
// formulas are read-once or share a handful of variables.
const DefaultSharedLimit = 24

// Prob computes the exact probability that e is true when every variable
// is an independent Bernoulli event with the probability given by assign.
// Read-once subformulas evaluate in linear time; variables occurring more
// than once are eliminated by Shannon expansion (most frequent first).
// Prob panics if the formula needs more than DefaultSharedLimit expansion
// steps; use ProbExact to control the limit and receive an error instead.
//
// This tree walk — with ProbExact, ProbIndependent, Derivatives and
// ProbBruteForce — is the reference evaluator: plan verification, the
// catalog's Confidence methods and the differential tests call it. What
// answers a request prices formulas through CompileExact and a Machine.
func Prob(e *Expr, assign Assignment) float64 {
	p, err := ProbExact(e, assign, DefaultSharedLimit)
	if err != nil {
		panic(err)
	}
	return p
}

// ProbExact is Prob with an explicit bound on the number of shared
// variables eliminated by Shannon expansion.
func ProbExact(e *Expr, assign Assignment, sharedLimit int) (float64, error) {
	if e.ReadOnce() { // the common case, told apart without counting
		return probReadOnce(e, assign), nil
	}
	shared := shannonOrder(e.sortedOccurrences(nil))
	if len(shared) > sharedLimit {
		return 0, fmt.Errorf("%w: %d shared variables, limit %d", ErrTooManyShared, len(shared), sharedLimit)
	}
	return shannon(e, assign, shared), nil
}

// ProbIndependent computes the probability of e under the (generally
// unsound) assumption that all subformulas are independent, i.e. shared
// variables are treated as distinct events. It is linear time and is the
// approximation ablated in BenchmarkAblationShannon.
func ProbIndependent(e *Expr, assign Assignment) float64 {
	return probReadOnce(e, assign)
}

// shannonOrder is the Shannon pivot order of the tree walk and the
// compiled kernel alike: given a formula's sorted variable occurrences,
// the variables occurring more than once, most frequent first, ties by
// ascending variable (conditioning on the most-shared variable removes
// the most duplication).
func shannonOrder(occ []Var) []Var {
	type run struct {
		v Var
		n int
	}
	var runs []run
	for i := 0; i < len(occ); {
		j := i + 1
		for j < len(occ) && occ[j] == occ[i] {
			j++
		}
		if j-i > 1 {
			runs = append(runs, run{occ[i], j - i})
		}
		i = j
	}
	// Runs come in ascending variable order, which a stable sort keeps
	// among equal counts.
	slices.SortStableFunc(runs, func(a, b run) int { return cmp.Compare(b.n, a.n) })
	shared := make([]Var, len(runs))
	for i, r := range runs {
		shared[i] = r.v
	}
	return shared
}

// shannon eliminates the shared variables one at a time:
// P(e) = p(v)·P(e|v=1) + (1−p(v))·P(e|v=0). Substitution simplifies the
// formula, which frequently turns the residual read-once early.
func shannon(e *Expr, assign Assignment, shared []Var) float64 {
	if len(shared) == 0 {
		return probReadOnce(e, assign)
	}
	if val, ok := e.IsConst(); ok {
		if val {
			return 1
		}
		return 0
	}
	// Re-check: substitutions may have removed sharing.
	if e.ReadOnce() {
		return probReadOnce(e, assign)
	}
	v := shared[0]
	rest := shared[1:]
	p := clamp01(assign.ProbOf(v))
	hi := shannon(e.Substitute(v, true), assign, rest)
	lo := shannon(e.Substitute(v, false), assign, rest)
	return p*hi + (1-p)*lo
}

// probReadOnce evaluates e assuming independence of children (exact when
// the formula is read-once).
func probReadOnce(e *Expr, assign Assignment) float64 {
	switch e.kind {
	case KindFalse:
		return 0
	case KindTrue:
		return 1
	case KindVar:
		return clamp01(assign.ProbOf(e.v))
	case KindNot:
		return 1 - probReadOnce(e.children[0], assign)
	case KindAnd:
		p := 1.0
		for _, c := range e.children {
			p *= probReadOnce(c, assign)
			//lint:allow confrange exact absorbing-zero short-circuit: once the
			// product is exactly 0 no later factor can revive it; an epsilon
			// test would wrongly truncate tiny-but-nonzero products.
			if p == 0 {
				return 0
			}
		}
		return p
	case KindOr:
		q := 1.0
		for _, c := range e.children {
			q *= 1 - probReadOnce(c, assign)
			//lint:allow confrange exact absorbing-zero short-circuit (see KindAnd).
			if q == 0 {
				return 1
			}
		}
		return 1 - q
	}
	panic("lineage: bad kind")
}

// ProbPinned returns the probability of e with variable v pinned to false
// (p0) and to true (p1). Because P(e) is multilinear in each variable,
// P(e) = (1−p(v))·p0 + p(v)·p1 for any probability of v, so the exact
// effect of changing v's confidence from p to p* is (p*−p)·(p1−p0) —
// the identity the solvers' gain computation rests on.
func ProbPinned(e *Expr, assign Assignment, v Var) (p0, p1 float64) {
	e0 := e.Substitute(v, false)
	e1 := e.Substitute(v, true)
	return Prob(e0, assign), Prob(e1, assign)
}

// Derivative returns ∂P(e)/∂p(v), i.e. P(e|v=1) − P(e|v=0).
func Derivative(e *Expr, assign Assignment, v Var) float64 {
	p0, p1 := ProbPinned(e, assign, v)
	return p1 - p0
}

// ProbBruteForce enumerates all 2^n assignments of the variables of e and
// sums the probability mass of the satisfying ones. It is exponential and
// exists as a test oracle for Prob. It returns an error when e has more
// than 20 variables.
func ProbBruteForce(e *Expr, assign Assignment) (float64, error) {
	vars := e.Vars()
	if len(vars) > 20 {
		return 0, fmt.Errorf("lineage: brute force over %d variables refused", len(vars))
	}
	total := 0.0
	truth := make(map[Var]bool, len(vars))
	//lint:allow ctxpoll test-only oracle hard-capped at 2^20 assignments by
	// the guard above; it never runs under a solve budget.
	for mask := 0; mask < 1<<len(vars); mask++ {
		mass := 1.0
		for i, v := range vars {
			p := clamp01(assign.ProbOf(v))
			if mask&(1<<i) != 0 {
				truth[v] = true
				mass *= p
			} else {
				truth[v] = false
				mass *= 1 - p
			}
		}
		if mass > 0 && e.Eval(truth) {
			total += mass
		}
	}
	return total, nil
}

// Monotone reports whether e is negation-free, i.e. P(e) is monotonically
// non-decreasing in every variable's probability. Confidence-increment
// planning relies on this property.
func (e *Expr) Monotone() bool {
	switch e.kind {
	case KindFalse, KindTrue, KindVar:
		return true
	case KindNot:
		return false
	case KindAnd, KindOr:
		for _, c := range e.children {
			if !c.Monotone() {
				return false
			}
		}
		return true
	}
	panic("lineage: bad kind")
}

// clamp01 delegates to the shared conf.Clamp so lineage evaluation and
// policy comparison agree on one repair rule for malformed confidences.
func clamp01(p float64) float64 {
	return conf.Clamp(p)
}

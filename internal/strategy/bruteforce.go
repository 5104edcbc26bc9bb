package strategy

import (
	"context"
	"fmt"
	"math"

	"pcqe/internal/conf"
	"pcqe/internal/fault"
)

// BruteForce exhaustively enumerates every δ-grid assignment and returns
// the provably optimal plan. It is exponential (domain^tuples) and
// refuses instances beyond a small size; it exists as the ground-truth
// oracle for testing the three real solvers.
type BruteForce struct {
	// MaxAssignments bounds the search space size (default 2,000,000).
	MaxAssignments int
}

// Name implements Solver.
func (b *BruteForce) Name() string { return "brute-force" }

// SolveContext implements Solver. The enumeration is anytime:
// interruption returns the best feasible assignment found so far
// (tagged Plan.Partial) with a *BudgetExceededError. Each enumerated
// assignment counts against Budget.MaxNodes.
func (b *BruteForce) SolveContext(ctx context.Context, in *Instance, bud Budget) (*Plan, error) {
	return runSolve(ctx, b.Name(), in, bud, b.search)
}

func (b *BruteForce) search(r *solveRun) (*Plan, error) {
	e, in, bs := r.e, r.e.in, r.e.bs
	limit := b.MaxAssignments
	if limit <= 0 {
		limit = 2_000_000
	}
	domains := make([][]float64, len(in.Base))
	total := 1
	for i, tup := range in.Base {
		var dom []float64
		for v := tup.P; ; v += in.Delta {
			if v > tup.maxP() {
				if conf.LT(dom[len(dom)-1], tup.maxP()) {
					dom = append(dom, tup.maxP())
				}
				break
			}
			dom = append(dom, v)
			if v >= tup.maxP() {
				break
			}
		}
		domains[i] = dom
		total *= len(dom)
		if total > limit {
			return nil, fmt.Errorf("strategy: brute force space %d exceeds limit %d", total, limit)
		}
	}

	bestCost := math.Inf(1)
	nodes := 0
	idx := make([]int, len(in.Base))
	for {
		nodes++
		fault.Probe(SiteBruteForce)
		bs.node()
		if e.nSat >= in.Need {
			if c := costOf(in, e.p); c < bestCost {
				r.incumbent = e.plan(nodes)
				bestCost = c
			}
		}
		// Odometer increment.
		k := 0
		for k < len(idx) {
			idx[k]++
			if idx[k] < len(domains[k]) {
				e.setP(k, domains[k][idx[k]])
				break
			}
			idx[k] = 0
			e.setP(k, domains[k][0])
			k++
		}
		if k == len(idx) {
			break
		}
	}
	if r.incumbent == nil {
		return nil, ErrInfeasible
	}
	r.incumbent.Nodes = nodes
	return r.incumbent, nil
}

package strategy

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// mediumInstance builds a Table-4-shaped workload without importing
// internal/workload (which depends on this package): n base tuples with
// confidence U[0.05,0.15] and mixed cost families, and n/per results,
// each an OR-rooted tree over per distinct sampled tuples. With
// withSharing, every third result duplicates one of its variables into
// a second clause, forcing the Shannon path.
func mediumInstance(seed int64, n, per int, withSharing bool) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := &Instance{Beta: 0.6, Delta: 0.1}
	for i := 0; i < n; i++ {
		fam := []cost.Function{
			cost.Linear{Rate: 1 + 99*r.Float64()},
			cost.Quadratic{A: 50 * r.Float64(), B: 1 + 50*r.Float64()},
			cost.Logarithmic{Scale: 10 + 40*r.Float64(), Rate: 1 + 4*r.Float64()},
		}[r.Intn(3)]
		in.Base = append(in.Base, BaseTuple{
			Var:  lineage.Var(i + 1),
			P:    0.05 + 0.1*r.Float64(),
			Cost: fam,
		})
	}
	nResults := n / per
	if nResults < 1 {
		nResults = 1
	}
	for ri := 0; ri < nResults; ri++ {
		perm := r.Perm(n)[:per]
		leaves := make([]*lineage.Expr, per)
		for i, p := range perm {
			leaves[i] = lineage.NewVar(lineage.Var(p + 1))
		}
		half := per / 2
		f := lineage.Or(lineage.And(leaves[:half]...), lineage.And(leaves[half:]...))
		if withSharing && ri%3 == 0 {
			// Re-use the first variable in an extra clause: one shared
			// variable, still monotone.
			f = lineage.Or(f, lineage.And(leaves[0], leaves[per-1]))
		}
		in.Results = append(in.Results, Result{ID: ri, Formula: f})
	}
	in.Need = (len(in.Results) + 1) / 2
	return in
}

// chainInstance is a read-once mediumInstance plus one result sharing
// 17 variables: (chain ∧ c) ∨ (chain ∧ d) over a 17-variable chain.
// This is the shape the tree-walk fallback used to win — pinning any
// chain variable false collapses the formula, so Shannon substitution
// was linear in the chain where the kernel enumerates 2^17 pivot
// assignments (≈50 ms per evaluation, against ≈1 ms for a whole
// tree-walk solve). The chain is priced out of the plan and c, d sit one
// δ step below β, so a solve evaluates the result a handful of times;
// Need covers every result, so that step is in every plan.
func chainInstance() *Instance {
	in := mediumInstance(11, 60, 5, false)
	fresh := func(p, rate float64) *lineage.Expr {
		v := lineage.Var(len(in.Base) + 1)
		in.Base = append(in.Base, BaseTuple{Var: v, P: p, Cost: cost.Linear{Rate: rate}})
		return lineage.NewVar(v)
	}
	var left, right []*lineage.Expr
	for i := 0; i < 17; i++ {
		v := fresh(0.99, 1e6)
		left, right = append(left, v), append(right, v)
	}
	f := lineage.Or(lineage.And(append(left, fresh(0.45, 10))...), lineage.And(append(right, fresh(0.45, 12))...))
	in.Results = append(in.Results, Result{ID: len(in.Results), Formula: f})
	in.Need = len(in.Results)
	return in
}

type namedInstance struct {
	name string
	in   *Instance
}

// differentialFixtures are the instances both differential suites run
// on — the plan pins below and the evaluator-vs-tree-walk walk in
// evaluator_test.go: ten small random instances of seed 7 and the
// medium Table-4-shaped workloads without sharing, with sharing, and
// with a 17-shared result.
func differentialFixtures() []namedInstance {
	out := []namedInstance{
		{"no-sharing", mediumInstance(11, 300, 5, false)},
		{"sharing", mediumInstance(11, 300, 5, true)},
		{"chain-17", chainInstance()},
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		out = append(out, namedInstance{fmt.Sprintf("small-%d", i), randomInstance(r)})
	}
	return out
}

// planHash is an FNV-1a of the plan's confidences, bit for bit.
func planHash(p *Plan) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range p.NewP {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenPlans pins every solver's plan on the differential fixtures:
// cost, node count and planHash. Recorded at commit ab8d63e, the last
// one where each solver also ran on the tree walk, with both evaluators
// producing these same plans; the evaluator itself is held to the tree
// walk by TestEvaluatorMatchesReferenceDifferential.
var goldenPlans = []struct {
	name  string
	cost  float64
	nodes int
	newP  uint64
}{
	{"greedy/small-0", 8.255770647422878, 10, 0xb6faa19b9a8f6ffc},
	{"greedy/small-1", 51.082296663392164, 23, 0xfb1fd0025859f5b3},
	{"greedy/small-2", 3.1170739189270216, 6, 0x812665d84c0489d5},
	{"greedy/small-3", 0, 3, 0x6f5bcfa4543fc643},
	{"greedy/small-4", 0, 4, 0x43580a2462ee9472},
	{"greedy/small-5", 3.2740407196573393, 6, 0x68c8f3f5f663e44e},
	{"greedy/small-6", 8.241479226095628, 8, 0xb5aa1a816efef4d9},
	{"greedy/small-7", 12.854353464475473, 17, 0xd914ffcebd813fe7},
	{"greedy/small-8", 33.433867028352864, 28, 0x30c8ddc3b0435ce5},
	{"greedy/small-9", 26.485177627547383, 16, 0xacde88f44b98af89},
	{"greedy-incremental/small-0", 8.255770647422878, 7, 0xb6faa19b9a8f6ffc},
	{"greedy-incremental/small-1", 51.082296663392164, 15, 0xfb1fd0025859f5b3},
	{"greedy-incremental/small-2", 3.1170739189270216, 6, 0x812665d84c0489d5},
	{"greedy-incremental/small-3", 0, 3, 0x6f5bcfa4543fc643},
	{"greedy-incremental/small-4", 0, 4, 0x43580a2462ee9472},
	{"greedy-incremental/small-5", 3.2740407196573393, 5, 0x68c8f3f5f663e44e},
	{"greedy-incremental/small-6", 8.241479226095628, 6, 0xb5aa1a816efef4d9},
	{"greedy-incremental/small-7", 12.854353464475473, 16, 0xd914ffcebd813fe7},
	{"greedy-incremental/small-8", 33.433867028352864, 12, 0x30c8ddc3b0435ce5},
	{"greedy-incremental/small-9", 26.485177627547383, 10, 0xacde88f44b98af89},
	{"heuristic/small-0", 8.255770647422878, 2, 0xb6faa19b9a8f6ffc},
	{"heuristic/small-1", 51.08229666339216, 9, 0x6931ec2c3544464e},
	{"heuristic/small-2", 3.1170739189270216, 2, 0x812665d84c0489d5},
	{"heuristic/small-3", 0, 0, 0x6f5bcfa4543fc643},
	{"heuristic/small-4", 0, 0, 0x43580a2462ee9472},
	{"heuristic/small-5", 3.2740407196573393, 2, 0x68c8f3f5f663e44e},
	{"heuristic/small-6", 8.241479226095628, 4, 0xb5aa1a816efef4d9},
	{"heuristic/small-7", 12.854353464475473, 9, 0xd914ffcebd813fe7},
	{"heuristic/small-8", 33.433867028352864, 10, 0x30c8ddc3b0435ce5},
	{"heuristic/small-9", 26.485177627547383, 9, 0xacde88f44b98af89},
	{"dnc/small-0", 8.255770647422878, 6, 0xb6faa19b9a8f6ffc},
	{"dnc/small-1", 51.08229666339216, 22, 0x6931ec2c3544464e},
	{"dnc/small-2", 3.1170739189270216, 8, 0x812665d84c0489d5},
	{"dnc/small-3", 0, 0, 0x6f5bcfa4543fc643},
	{"dnc/small-4", 0, 0, 0x43580a2462ee9472},
	{"dnc/small-5", 3.2740407196573393, 6, 0x68c8f3f5f663e44e},
	{"dnc/small-6", 8.241479226095628, 6, 0xb5aa1a816efef4d9},
	{"dnc/small-7", 12.854353464475473, 25, 0xd914ffcebd813fe7},
	{"dnc/small-8", 33.433867028352864, 16, 0x30c8ddc3b0435ce5},
	{"dnc/small-9", 26.485177627547383, 18, 0xacde88f44b98af89},
	{"greedy/no-sharing", 1198.8289173278583, 98443, 0xf08555fad67d4fdc},
	{"greedy/sharing", 1109.2159311256587, 88775, 0x9120c326bca5f848},
	{"greedy/chain-17", 544.5508291382855, 12424, 0x4dc4fdf24cda873c},
	{"greedy-incremental/no-sharing", 1198.8289173278583, 2927, 0xf08555fad67d4fdc},
	{"greedy-incremental/sharing", 1109.2159311256587, 2800, 0x9120c326bca5f848},
	{"greedy-incremental/chain-17", 544.5508291382855, 1223, 0x4dc4fdf24cda873c},
	{"dnc/no-sharing", 1198.8289173278583, 2812, 0xf08555fad67d4fdc},
	{"dnc/sharing", 1109.2159311256587, 2685, 0x9120c326bca5f848},
	{"dnc/chain-17", 544.5508291382855, 1202, 0x4dc4fdf24cda873c},
	// D&C with its first group degraded (degradedDnC), so every plan
	// below passes through the driver's top-up and its refinement.
	// Recorded at commit bb642e1, while both still had their own loops.
	{"dnc-degraded-cap1/split-group", 17.999999999999993, 26, 0xb3931ea1234b74ab},
	{"dnc-degraded-cap1/chain-17", 474.7864804438992, 954, 0xe454964aaf8f2fef},
	{"dnc-degraded-cap4/chain-17", 473.00791403181574, 749, 0x157aea4a9e854550},
	{"dnc-degraded/no-sharing", 1196.9939442043076, 0, 0x480cc6e4bad691d3},
	{"dnc-degraded/sharing", 1109.2159311256587, 0, 0x9120c326bca5f848},
	{"dnc-degraded/chain-17", 545.32907683047, 38, 0xc1c59dee76ff302d},
	{"dnc-degraded/small-1", 51.082296663392164, 0, 0xfb1fd0025859f5b3},
	{"dnc-degraded/small-7", 12.854353464475473, 0, 0xd914ffcebd813fe7},
}

// TestDifferentialCompiledPlansAllSolvers holds every solver to the
// plans in goldenPlans: the small instances for all four solvers, the
// medium ones for greedy, incremental greedy and D&C (the exhaustive
// heuristic is too slow there), and degraded D&C under three group caps.
func TestDifferentialCompiledPlansAllSolvers(t *testing.T) {
	fixtures := map[string]*Instance{"split-group": splitGroupInstance()}
	for _, f := range differentialFixtures() {
		fixtures[f.name] = f.in
	}
	solvers := map[string]Solver{
		"greedy":             &Greedy{},
		"greedy-incremental": &Greedy{Incremental: true},
		"heuristic":          NewHeuristic(),
		"dnc":                NewDivideAndConquer(),
		"dnc-degraded":       &degradedDnC{DivideAndConquer: NewDivideAndConquer()},
		"dnc-degraded-cap1":  &degradedDnC{DivideAndConquer: &DivideAndConquer{Gamma: 1, Tau: 0, MaxGroupResults: 1}},
		"dnc-degraded-cap4":  &degradedDnC{DivideAndConquer: &DivideAndConquer{Gamma: 1, Tau: 8, MaxGroupResults: 4}},
	}
	for _, g := range goldenPlans {
		solver, fixture, _ := strings.Cut(g.name, "/")
		in := fixtures[fixture]
		plan, err := solve(solvers[solver], in)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if plan.Cost != g.cost || plan.Nodes != g.nodes || planHash(plan) != g.newP {
			t.Errorf("%s: cost %v nodes %d hash %#x, pinned %v / %d / %#x", g.name, plan.Cost, plan.Nodes, planHash(plan), g.cost, g.nodes, g.newP)
		}
		if err := in.Verify(plan); err != nil {
			t.Errorf("%s: plan fails Verify: %v", g.name, err)
		}
		if d, ok := solvers[solver].(*degradedDnC); ok && (d.finish == 0 || d.refine == 0) {
			t.Errorf("%s: top-up steps %d, refinement steps %d; the pin must cover both", g.name, d.finish, d.refine)
		}
	}
}

// TestGreedyHeapMatchesRescanMedium: the lazy-heap incremental gain
// selection must reproduce the full rescan's plan exactly (same
// tie-breaking) on workload-shaped instances, where thousands of picks
// exercise the staleness handling.
func TestGreedyHeapMatchesRescanMedium(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := mediumInstance(seed, 200, 5, seed == 3)
		rescan, err := solve(&Greedy{}, in)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := solve(&Greedy{Incremental: true}, in)
		if err != nil {
			t.Fatal(err)
		}
		// Node counts legitimately differ (that is the point of the
		// incremental mode); everything else must match.
		if rescan.Cost != incr.Cost {
			t.Fatalf("seed %d: rescan cost %v, incremental %v", seed, rescan.Cost, incr.Cost)
		}
		for i := range rescan.NewP {
			if rescan.NewP[i] != incr.NewP[i] {
				t.Fatalf("seed %d: tuple %d rescan %v, incremental %v", seed, i, rescan.NewP[i], incr.NewP[i])
			}
		}
		if incr.Nodes > rescan.Nodes {
			t.Fatalf("seed %d: incremental evaluated more gains (%d) than rescan (%d)", seed, incr.Nodes, rescan.Nodes)
		}
	}
}

// TestVerifyCompiledPlans: plans from the compiled path must pass the
// instance's independent verification (which itself uses the tree-walk
// Prob), tying the two stacks together end to end.
func TestVerifyCompiledPlans(t *testing.T) {
	in := mediumInstance(5, 120, 4, true)
	for _, s := range []Solver{&Greedy{}, &Greedy{Incremental: true}, NewDivideAndConquer()} {
		plan, err := solve(s, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.Verify(plan); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if math.IsNaN(plan.Cost) || plan.Cost < 0 {
			t.Fatalf("%s: bad cost %v", s.Name(), plan.Cost)
		}
	}
}

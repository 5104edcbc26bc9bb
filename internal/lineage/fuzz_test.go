package lineage

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzVars bounds the variables of a fuzzed formula, which keeps the
// brute-force oracle at 2^10 assignments.
const fuzzVars = 10

// decodeFormula reads a formula over variables 0..fuzzVars-1 from data,
// in prefix order: a byte's low two bits pick the node (variable,
// negation, conjunction, disjunction) and its high six bits the
// variable or the child count. From the 64th node on, at a depth of 8
// or at the end of data every node is a variable, and no node has more
// children than the nodes left below 64: the tree-walk Shannon
// expansion rebuilds the whole formula per pivot assignment, so its size
// must stay small.
func decodeFormula(data []byte) *Expr {
	size := 0
	var next func(depth int) *Expr
	next = func(depth int) *Expr {
		size++
		if len(data) == 0 {
			return NewVar(0)
		}
		b := data[0]
		data = data[1:]
		if b&3 == 0 || depth >= 8 || size >= 64 {
			return NewVar(Var(b>>2) % fuzzVars)
		}
		if b&3 == 1 {
			return Not(next(depth + 1))
		}
		kids := make([]*Expr, min(int(b>>2), 64-size))
		for i := range kids {
			kids[i] = next(depth + 1)
		}
		if b&3 == 2 {
			return And(kids...)
		}
		return Or(kids...)
	}
	return next(0)
}

// encodeFormula is decodeFormula's inverse, for seeding the corpus.
func encodeFormula(e *Expr, dst []byte) []byte {
	switch e.kind {
	case KindFalse:
		return append(dst, 3)
	case KindTrue:
		return append(dst, 2)
	case KindVar:
		return append(dst, byte(e.v)<<2)
	case KindNot:
		return encodeFormula(e.children[0], append(dst, 1))
	}
	kind := byte(2)
	if e.kind == KindOr {
		kind = 3
	}
	dst = append(dst, byte(len(e.children))<<2|kind)
	for _, c := range e.children {
		dst = encodeFormula(c, dst)
	}
	return dst
}

// FuzzLineageEvaluators holds the compiled kernel to the reference
// evaluators on decoded formulas: bit for bit to ProbIndependent on
// read-once formulas, within 1e-12 of the tree-walk Prob otherwise, and
// both within 1e-9 of the truth-table oracle. The kernel's pivots must
// be shannonOrder's.
func FuzzLineageEvaluators(f *testing.F) {
	r := rand.New(rand.NewSource(113))
	for i := 0; i < 16; i++ {
		probs := make([]byte, fuzzVars)
		r.Read(probs)
		f.Add(encodeFormula(randomExpr(r, 2+r.Intn(fuzzVars-1), 3), nil), probs)
		f.Add(encodeFormula(randomReadOnceExpr(r, 1+r.Intn(fuzzVars)), nil), probs)
	}
	f.Fuzz(func(t *testing.T, shape, probs []byte) {
		e := decodeFormula(shape)
		assign := MapAssignment{}
		for v := Var(0); v < fuzzVars; v++ {
			assign[v] = 0.5
			if int(v) < len(probs) {
				assign[v] = float64(probs[v]) / 255
			}
		}
		prog, err := CompileExact(e, DefaultSharedLimit)
		if err != nil {
			t.Fatalf("CompileExact(%v): %v", e, err)
		}
		var pivots []Var
		for _, s := range prog.SharedSlots() {
			pivots = append(pivots, prog.Vars()[s])
		}
		if want := shannonOrder(e.sortedOccurrences(nil)); !slices.Equal(pivots, want) {
			t.Fatalf("%v: kernel pivots %v, shannonOrder %v", e, pivots, want)
		}
		got := NewMachine(prog).Prob(probsFor(prog, assign))
		exact := Prob(e, assign)
		if e.ReadOnce() {
			if want := ProbIndependent(e, assign); got != want {
				t.Fatalf("%v: kernel %v, ProbIndependent %v (read-once: must be bit-identical)", e, got, want)
			}
		} else if math.Abs(got-exact) > 1e-12 {
			t.Fatalf("%v: kernel %v, Prob %v", e, got, exact)
		}
		brute, err := ProbBruteForce(e, assign)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-brute) > 1e-9 || math.Abs(exact-brute) > 1e-9 {
			t.Fatalf("%v: kernel %v, Prob %v, brute force %v", e, got, exact, brute)
		}
	})
}

package lineage

import (
	"math"
	"math/rand"
	"testing"
)

// randomOperands draws the operands of a DISTINCT group: conjunctions of
// one to three variables from a small pool, now and then with a random
// monotone subformula, so that operands share conjuncts often and
// sometimes share variables only below a conjunct.
func randomOperands(r *rand.Rand, nVars int) []*Expr {
	ops := make([]*Expr, 1+r.Intn(6))
	for i := range ops {
		var cs []*Expr
		for range 1 + r.Intn(3) {
			cs = append(cs, NewVar(Var(r.Intn(nVars))))
		}
		if r.Intn(4) == 0 {
			cs = append(cs, randomMonotoneExpr(r, nVars, 2))
		}
		ops[i] = And(cs...)
	}
	return ops
}

// occurrences counts every variable occurrence in e.
func occurrences(e *Expr) map[Var]int {
	n := map[Var]int{}
	e.WalkVars(func(v Var) { n[v]++ })
	return n
}

// TestDifferentialOrFactored holds the factoring constructor to the
// plain disjunction over generated monotone operand lists: the same
// probability as the truth-table oracle, the same variables, none
// occurring more often, and the same formula for the same input.
func TestDifferentialOrFactored(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		ops := randomOperands(r, 2+r.Intn(7))
		plain, factored := Or(ops...), OrFactored(ops...)
		assign := randomAssign(r, plain)
		want, err := ProbBruteForce(plain, assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := Prob(factored, assign); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: P(%v) = %v, brute force over %v gives %v", trial, factored, got, plain, want)
		}
		before, after := occurrences(plain), occurrences(factored)
		if len(after) != len(before) {
			t.Fatalf("trial %d: %v has %d variables, %v has %d", trial, factored, len(after), plain, len(before))
		}
		for v, n := range after {
			if n > before[v] {
				t.Fatalf("trial %d: t%d occurs %d times in %v, %d in %v", trial, v, n, factored, before[v], plain)
			}
		}
		if again := OrFactored(ops...).String(); again != factored.String() {
			t.Fatalf("trial %d: %v, then %v from the same operands", trial, factored, again)
		}
	}
}

// TestDifferentialOrFactoredBitIdentical: on the DISTINCT-join shape
// (a ∧ s) ∨ (b ∧ s) ∨ …, the factored formula is read-once, and its one
// flat pass gives the very bits the compiled kernel's Shannon expansion
// on s gives for the unfactored one — probability and derivatives.
func TestDifferentialOrFactoredBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 500; trial++ {
		s := NewVar(0)
		ops := make([]*Expr, 2+r.Intn(4))
		for i := range ops {
			if x := NewVar(Var(i + 1)); r.Intn(2) == 0 {
				ops[i] = And(x, s)
			} else {
				ops[i] = And(s, x)
			}
		}
		plain, factored := Or(ops...), OrFactored(ops...)
		pp, fp := mustCompile(t, plain), mustCompile(t, factored)
		if pp.ReadOnce() || !fp.ReadOnce() {
			t.Fatalf("trial %d: %v read-once %v, factored %v read-once %v", trial, plain, pp.ReadOnce(), factored, fp.ReadOnce())
		}
		assign := randomAssign(r, plain)
		probs := probsFor(pp, assign) // both programs have slots t0, t1, …
		pd, fd := make([]float64, pp.NumSlots()), make([]float64, fp.NumSlots())
		if got, want := NewMachine(fp).ProbDeriv(probs, fd), NewMachine(pp).ProbDeriv(probs, pd); got != want {
			t.Fatalf("trial %d: factored %v = %v, Shannon over %v = %v", trial, factored, got, plain, want)
		}
		for i := range pd {
			if fd[i] != pd[i] {
				t.Fatalf("trial %d: ∂/∂t%d factored %v, Shannon %v", trial, i, fd[i], pd[i])
			}
		}
	}
}

// TestOrFactoredKeepsUnsharedInput: with no conjunct two operands share,
// or no conjunction among them, the constructor is Or.
func TestOrFactoredKeepsUnsharedInput(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for trial := 0; trial < 500; trial++ {
		// Every operand's conjuncts are its own variables; subformulas may
		// still repeat variables below them.
		ops, next := make([]*Expr, 1+r.Intn(5)), Var(100)
		for i := range ops {
			var cs []*Expr
			for range 1 + r.Intn(3) {
				cs, next = append(cs, NewVar(next)), next+1
			}
			if r.Intn(3) == 0 {
				cs = append(cs, Or(randomMonotoneExpr(r, 6, 2), randomMonotoneExpr(r, 6, 2)))
			}
			ops[i] = And(cs...)
		}
		if got, want := OrFactored(ops...).String(), Or(ops...).String(); got != want {
			t.Fatalf("trial %d: %s, want %s unchanged", trial, got, want)
		}
	}
	for _, ops := range [][]*Expr{
		{NewVar(1), NewVar(1), Or(NewVar(2), NewVar(3))},
		{False(), NewVar(4)},
		{And(NewVar(1), NewVar(2))},
		{},
	} {
		if got, want := OrFactored(ops...).String(), Or(ops...).String(); got != want {
			t.Fatalf("%s, want %s unchanged", got, want)
		}
	}
}

// TestOrFactoredShapes pins what the folds of DISTINCT, UNION and
// INTERSECT build.
func TestOrFactoredShapes(t *testing.T) {
	v := func(i int) *Expr { return NewVar(Var(i)) }
	for _, c := range []struct {
		ops  []*Expr
		want string
	}{
		{[]*Expr{And(v(2), v(1)), And(v(3), v(1))}, "(t1 & (t2 | t3))"},
		{[]*Expr{And(v(1), v(5), v(2)), And(v(1), v(5), v(3))}, "(t1 & t5 & (t2 | t3))"},
		// Groups form in operand order around each operand's most shared
		// conjunct; an operand alone in its group stays as it is.
		{[]*Expr{And(v(2), v(1)), And(v(9), v(8)), And(v(3), v(1)), And(v(4), v(8)), And(v(5), v(6))},
			"((t1 & (t2 | t3)) | (t8 & (t9 | t4)) | (t5 & t6))"},
		// A bare variable joins no group: s ∨ (s ∧ a) is not absorbed
		// into s, so t2 stays in the lineage.
		{[]*Expr{v(1), And(v(1), v(2))}, "(t1 | (t1 & t2))"},
		{[]*Expr{v(1), And(v(1), v(2)), And(v(1), v(3))}, "(t1 | (t1 & (t2 | t3)))"},
		// A disjunction is an operand like any other: factoring does not
		// look inside it.
		{[]*Expr{Or(And(v(2), v(1)), v(7)), And(v(4), v(5)), And(v(3), v(5))}, "((t2 & t1) | t7 | (t5 & (t4 | t3)))"},
	} {
		if got := OrFactored(c.ops...).String(); got != c.want {
			t.Errorf("OrFactored%v = %s, want %s", c.ops, got, c.want)
		}
	}
}

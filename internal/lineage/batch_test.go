package lineage

import (
	"math"
	"strings"
	"testing"
)

// batchFixture compiles a mix of read-once and shared-variable formulas
// over one global probability array, returning the loaded batch, the
// machines, the gather maps and the shared array (probabilities 0.1,
// 0.2, ... by global variable index).
func batchFixture(t testing.TB) (*Batch, []*Machine, [][]int, []float64) {
	t.Helper()
	v := func(i int) *Expr { return NewVar(Var(i)) }
	formulas := []*Expr{
		And(v(1), v(2)),
		Or(And(v(2), v(3)), And(v(3), v(4))), // shared: v3 pivots
		Or(v(5), And(v(1), v(6))),
		And(v(4), v(5), v(6)),
	}
	shared := make([]float64, 7)
	for i := range shared {
		shared[i] = 0.1 * float64(i+1)
	}
	b := &Batch{}
	machines := make([]*Machine, len(formulas))
	gathers := make([][]int, len(formulas))
	for k, f := range formulas {
		p := mustCompile(t, f)
		machines[k] = NewMachine(p)
		idx := make([]int, p.NumSlots())
		for s, vr := range p.Vars() {
			idx[s] = int(vr) - 1
		}
		gathers[k] = idx
		if err := b.Add(machines[k], idx); err != nil {
			t.Fatalf("Add machine %d: %v", k, err)
		}
	}
	if b.Len() != len(formulas) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(formulas))
	}
	return b, machines, gathers, shared
}

// gatherInto reproduces what the batch does internally: pull machine k's
// slot probabilities out of the shared array.
func gatherInto(gather []int, shared []float64) []float64 {
	s := make([]float64, len(gather))
	for i, gi := range gather {
		s[i] = shared[gi]
	}
	return s
}

func TestBatchEvalBitIdenticalToMachines(t *testing.T) {
	b, machines, gathers, shared := batchFixture(t)
	out := make([]float64, b.Len())
	b.EvalBatch(shared, out)
	for k, m := range machines {
		want := m.Prob(gatherInto(gathers[k], shared))
		if math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Errorf("machine %d: batch %v, direct %v (not bit-identical)", k, out[k], want)
		}
	}
}

func TestBatchProbDerivBitIdenticalToMachines(t *testing.T) {
	b, machines, gathers, shared := batchFixture(t)
	out := make([]float64, b.Len())
	rows := make([][]float64, b.Len())
	for k := range rows {
		rows[k] = make([]float64, len(gathers[k]))
	}
	b.ProbDerivBatch(shared, out, rows)
	for k, m := range machines {
		deriv := make([]float64, len(gathers[k]))
		want := m.ProbDeriv(gatherInto(gathers[k], shared), deriv)
		if math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Errorf("machine %d: batch prob %v, direct %v", k, out[k], want)
		}
		for s := range deriv {
			if math.Float64bits(rows[k][s]) != math.Float64bits(deriv[s]) {
				t.Errorf("machine %d slot %d: batch deriv %v, direct %v", k, s, rows[k][s], deriv[s])
			}
		}
	}
}

func TestBatchProbDerivNilRowSkips(t *testing.T) {
	b, _, gathers, shared := batchFixture(t)
	out := make([]float64, b.Len())
	full := make([]float64, b.Len())
	b.EvalBatch(shared, full)
	const sentinel = -999.0
	for k := range out {
		out[k] = sentinel
	}
	rows := make([][]float64, b.Len())
	rows[1] = make([]float64, len(gathers[1])) // refresh only machine 1
	b.ProbDerivBatch(shared, out, rows)
	for k := range out {
		if k == 1 {
			if math.Float64bits(out[k]) != math.Float64bits(full[k]) {
				t.Errorf("refreshed machine %d: prob %v, want %v", k, out[k], full[k])
			}
			continue
		}
		if out[k] != sentinel {
			t.Errorf("skipped machine %d: out overwritten to %v", k, out[k])
		}
	}
	// nil out skips probability recording entirely.
	b.ProbDerivBatch(shared, nil, rows)
}

func TestBatchAddValidation(t *testing.T) {
	m := NewMachine(mustCompile(t, And(NewVar(1), NewVar(2))))
	b := &Batch{}
	if err := b.Add(m, []int{0}); err == nil || !strings.Contains(err.Error(), "gather indices") {
		t.Errorf("short gather map: err = %v", err)
	}
	if err := b.Add(m, []int{0, -1}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative index: err = %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("failed Adds must not register machines, Len = %d", b.Len())
	}
	if err := b.Add(m, []int{4, 2}); err != nil {
		t.Fatalf("valid Add: %v", err)
	}
}

func TestBatchPanicsOnBadArrays(t *testing.T) {
	b, _, gathers, shared := batchFixture(t)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a panic", name)
			}
		}()
		f()
	}
	expectPanic("short out", func() { b.EvalBatch(shared, make([]float64, b.Len()-1)) })
	expectPanic("short shared", func() { b.EvalBatch(shared[:2], make([]float64, b.Len())) })
	expectPanic("short rows", func() {
		b.ProbDerivBatch(shared, make([]float64, b.Len()), make([][]float64, b.Len()-1))
	})
	expectPanic("short deriv row", func() {
		rows := make([][]float64, b.Len())
		rows[0] = make([]float64, len(gathers[0])-1)
		b.ProbDerivBatch(shared, nil, rows)
	})
}

func TestBatchSweepsAllocationFree(t *testing.T) {
	b, _, gathers, shared := batchFixture(t)
	out := make([]float64, b.Len())
	rows := make([][]float64, b.Len())
	for k := range rows {
		rows[k] = make([]float64, len(gathers[k]))
	}
	if n := testing.AllocsPerRun(100, func() { b.EvalBatch(shared, out) }); n != 0 {
		t.Errorf("EvalBatch allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.ProbDerivBatch(shared, out, rows) }); n != 0 {
		t.Errorf("ProbDerivBatch allocates %v per run, want 0", n)
	}
}

package lineage

import "fmt"

// This file adds batched entry points over compiled programs: one Batch
// evaluates many machines against a single shared slot array in one
// pass. The strategy evaluator holds one probability per base tuple and
// re-derives every result's probability (and dense derivative rows)
// from it; doing that machine-by-machine pays per-call slice setup and
// bounds checks for every formula. A Batch precomputes each machine's
// gather indices into the shared array once (validated int32 indices,
// so the inner gather loop is branch-light) and reuses one scratch
// buffer across all machines, so a full dense refresh is a single
// allocation-free sweep.
//
// A Batch is single-goroutine like the Machines it drives; build one
// per evaluator. The per-machine results are bit-identical to calling
// Machine.Prob/ProbDeriv directly with the gathered inputs, which the
// strategy solvers rely on for serial/parallel plan identity.

// Batch evaluates a set of compiled-program machines over one shared
// slot array. The zero value is an empty batch ready for Add.
type Batch struct {
	machines []*Machine
	// gather[k][s] is the index into the shared array holding the
	// probability for slot s of machine k.
	gather [][]int32
	// gatherBuf backs the gather rows, so a Reset batch refills without
	// allocating; rows never move once handed out (append only grows a
	// fresh backing array and leaves earlier rows on the old one).
	gatherBuf []int32
	maxIdx    int       // largest gather index, for one up-front bound check
	scratch   []float64 // slot-probability staging, len = max NumSlots
}

// Reset empties the batch, keeping its buffers for the next fill.
func (b *Batch) Reset() {
	b.machines, b.gather, b.gatherBuf, b.maxIdx = b.machines[:0], b.gather[:0], b.gatherBuf[:0], 0
}

// Add appends m with its gather map: idx[s] is the shared-array index
// feeding slot s, so len(idx) must equal m's program's NumSlots and
// every entry must be non-negative. The indices are copied.
func (b *Batch) Add(m *Machine, idx []int) error {
	if want := m.prog.NumSlots(); len(idx) != want {
		return fmt.Errorf("lineage: Batch.Add: %d gather indices for %d slots", len(idx), want)
	}
	start := len(b.gatherBuf)
	for s, i := range idx {
		if i < 0 {
			b.gatherBuf = b.gatherBuf[:start]
			return fmt.Errorf("lineage: Batch.Add: negative gather index %d at slot %d", i, s)
		}
		if i > b.maxIdx {
			b.maxIdx = i
		}
		b.gatherBuf = append(b.gatherBuf, int32(i))
	}
	b.machines = append(b.machines, m)
	b.gather = append(b.gather, b.gatherBuf[start:len(b.gatherBuf):len(b.gatherBuf)])
	if len(idx) > len(b.scratch) {
		b.scratch = make([]float64, len(idx))
	}
	return nil
}

// Len returns the number of machines in the batch.
func (b *Batch) Len() int { return len(b.machines) }

// check validates the shared and out arrays once per batch call, so the
// per-machine loops run without further bounds reasoning.
func (b *Batch) check(shared, out []float64, what string) {
	if out != nil && len(out) != len(b.machines) {
		panic(fmt.Sprintf("lineage: %s: %d outputs for %d machines", what, len(out), len(b.machines)))
	}
	if len(b.machines) > 0 && b.maxIdx >= len(shared) {
		panic(fmt.Sprintf("lineage: %s: shared array length %d, need > %d", what, len(shared), b.maxIdx))
	}
}

// EvalBatch evaluates every machine against shared, writing machine k's
// probability to out[k] (len = Len). One scratch buffer serves all
// machines, so the sweep allocates nothing.
func (b *Batch) EvalBatch(shared, out []float64) {
	b.check(shared, out, "EvalBatch")
	for k, m := range b.machines {
		s := b.scratch[:len(b.gather[k])]
		for i, gi := range b.gather[k] {
			s[i] = shared[gi]
		}
		out[k] = m.Prob(s)
	}
}

// ProbDerivBatch evaluates every machine with derivatives: machine k's
// probability goes to out[k] (skipped entirely when out is nil) and its
// dense derivative row into rows[k] (len = the machine's NumSlots,
// overwritten). A nil rows[k] skips machine k — callers use that to
// refresh only the stale rows of a dense derivative cache in one pass.
func (b *Batch) ProbDerivBatch(shared, out []float64, rows [][]float64) {
	b.check(shared, out, "ProbDerivBatch")
	if len(rows) != len(b.machines) {
		panic(fmt.Sprintf("lineage: ProbDerivBatch: %d rows for %d machines", len(rows), len(b.machines)))
	}
	for k, m := range b.machines {
		if rows[k] == nil {
			continue
		}
		s := b.scratch[:len(b.gather[k])]
		for i, gi := range b.gather[k] {
			s[i] = shared[gi]
		}
		p := m.ProbDeriv(s, rows[k])
		if out != nil {
			out[k] = p
		}
	}
}

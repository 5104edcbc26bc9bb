package lineage

import (
	"fmt"
	"slices"
)

// This file implements knowledge-compilation-style evaluation of lineage
// formulas: an expression is compiled once into a flat postfix program
// over dense variable slots, and then evaluated many times — the access
// pattern of the strategy solvers, which re-evaluate the same result
// formulas thousands of times while only tuple confidences change. The
// compiled form eliminates the tree walk's pointer chasing, the
// per-variable map lookups of Assignment, and the map allocation of
// Derivatives: probabilities and all per-variable derivatives come out
// of one allocation-free fused inside–outside sweep over []float64.

// op is a compiled-program opcode.
type op uint8

const (
	opFalse op = iota // push constant 0
	opTrue            // push constant 1
	opLoad            // push probability of slot arg
	opNot             // complement the preceding value
	opAnd             // product of arg children
	opOr              // 1 − Π(1 − child) over arg children
)

// instr is one postfix instruction. Children of opAnd/opOr occupy the
// positions listed in Program.kids[kids:kids+arg]; opNot's single child
// is always the immediately preceding instruction.
type instr struct {
	op   op
	arg  int32 // opLoad: slot index; opAnd/opOr: child count
	kids int32 // opAnd/opOr: offset into Program.kids
}

// Program is a lineage formula compiled to a flat postfix instruction
// array over dense variable slots. A Program is immutable after
// CompileExact and may be shared freely across goroutines; evaluation
// state lives in a Machine (one per goroutine).
type Program struct {
	code []instr
	kids []int32 // flattened child positions for opAnd/opOr
	vars []Var   // slot index -> variable, sorted ascending
	// shared lists the slots of variables occurring more than once, in
	// the Shannon pivot order precomputed at compile time (shannonOrder,
	// the order the tree-walk Prob uses). Empty for read-once formulas.
	shared   []int32
	maxArity int
}

// CompileExact compiles e into a Program. It fails with
// ErrTooManyShared when more than sharedLimit variables occur multiple
// times: compiled Shannon evaluation enumerates all 2^shared pivot
// assignments, so the limit bounds evaluation cost up front.
func CompileExact(e *Expr, sharedLimit int) (*Program, error) {
	occ := e.sortedOccurrences(nil)
	shared := shannonOrder(occ)
	if len(shared) > sharedLimit {
		return nil, fmt.Errorf("%w: %d shared variables, limit %d", ErrTooManyShared, len(shared), sharedLimit)
	}
	// n leaves have fewer than n inner nodes of two or more children.
	p := &Program{vars: slices.Compact(occ), code: make([]instr, 0, 2*len(occ)+1), kids: make([]int32, 0, 2*len(occ))}
	for _, v := range shared {
		s, _ := slices.BinarySearch(p.vars, v) // a slot is a place in vars
		p.shared = append(p.shared, int32(s))
	}
	p.emit(e)
	return p, nil
}

// emit appends the postfix code of e and returns the position of its
// root instruction.
func (p *Program) emit(e *Expr) int32 {
	switch e.Kind() {
	case KindFalse:
		p.code = append(p.code, instr{op: opFalse})
	case KindTrue:
		p.code = append(p.code, instr{op: opTrue})
	case KindVar:
		s, _ := slices.BinarySearch(p.vars, e.Variable())
		p.code = append(p.code, instr{op: opLoad, arg: int32(s)})
	case KindNot:
		p.emit(e.Children()[0])
		p.code = append(p.code, instr{op: opNot})
	case KindAnd, KindOr:
		children := e.Children()
		// The node's child list is reserved before its children emit theirs.
		off := len(p.kids)
		p.kids = append(p.kids, make([]int32, len(children))...)
		for i, c := range children {
			pos := p.emit(c)
			p.kids[off+i] = pos
		}
		o := opAnd
		if e.Kind() == KindOr {
			o = opOr
		}
		p.code = append(p.code, instr{op: o, arg: int32(len(children)), kids: int32(off)})
		if len(children) > p.maxArity {
			p.maxArity = len(children)
		}
	default:
		panic("lineage: bad kind")
	}
	return int32(len(p.code) - 1)
}

// NumSlots returns the number of distinct variables (= the length of
// the probs and deriv slices Machine evaluation expects).
func (p *Program) NumSlots() int { return len(p.vars) }

// Vars returns the slot-indexed variable list (sorted ascending). The
// returned slice must not be modified.
func (p *Program) Vars() []Var { return p.vars }

// ReadOnce reports whether the compiled formula is read-once (no
// Shannon pivots).
func (p *Program) ReadOnce() bool { return len(p.shared) == 0 }

// SharedSlots returns the precomputed Shannon pivot slots (descending
// occurrence count). The returned slice must not be modified.
func (p *Program) SharedSlots() []int32 { return p.shared }

// Machine evaluates one Program. It owns the scratch buffers of the
// inside and outside passes, so a Machine is NOT safe for concurrent
// use — create one per goroutine (programs themselves are shareable).
type Machine struct {
	prog *Program
	slab []float64 // the float scratch below, carved from one allocation
	vals []float64 // inside value per instruction position
	out  []float64 // outside value per instruction position
	pref []float64 // sibling prefix products (outside pass)
	// pinned[slot] overrides the slot's probability during Shannon
	// enumeration: -1 unpinned, 0 or 1 the pinned truth value.
	pinned []int8
	fact   []float64 // per-pivot weight factors (shared evaluation)
	facPre []float64 // prefix products of fact
	// hook, when set, is called once per evaluated Shannon pivot
	// assignment with the count since the last call (currently always
	// 1). See SetPivotHook.
	hook func(pivots int)
	// evals and pivots count Prob/ProbDeriv calls and Shannon pivot
	// assignments over the machine's lifetime (see Counters). Plain
	// int64: a Machine is single-goroutine by contract.
	evals, pivots int64
}

// NewMachine returns a Machine for p.
func NewMachine(p *Program) *Machine {
	m := &Machine{}
	m.Reset(p)
	return m
}

// Reset re-targets the machine at p, reusing its scratch buffers by
// capacity, so one machine can serve a sequence of programs without
// allocating once it has seen the largest. Every pin flag is cleared:
// a machine whose last evaluation was aborted by a panicking pivot hook
// is re-armed by Reset. The hook and the lifetime counters are kept.
func (m *Machine) Reset(p *Program) {
	m.prog = p
	nc, na, ns := len(p.code), p.maxArity+1, len(p.shared)
	if need := 2*nc + na + 2*ns + 1; cap(m.slab) < need {
		m.slab = make([]float64, need)
	}
	// The contents are unspecified: every evaluation pass writes a
	// scratch cell before reading it.
	s := m.slab
	m.vals, s = s[:nc:nc], s[nc:]
	m.out, s = s[:nc:nc], s[nc:]
	m.pref, s = s[:na:na], s[na:]
	m.fact, m.facPre = s[:ns:ns], s[ns:2*ns+1]
	if cap(m.pinned) < len(p.vars) {
		m.pinned = make([]int8, len(p.vars))
	}
	m.pinned = m.pinned[:len(p.vars)]
	for i := range m.pinned {
		m.pinned[i] = -1
	}
}

// SetPivotHook installs f as the machine's cooperative checkpoint for
// Shannon pivot enumeration: shared-variable evaluation calls f once per
// pivot assignment (2^shared per Prob/ProbDeriv), which is the unit of
// exponential work a caller may want to budget. The hook may panic to
// abort an evaluation mid-enumeration — the caller that installed it
// owns the recovery, and must then discard the machine's in-flight
// evaluation state (pin flags may be left set). A nil f removes the
// hook; read-once evaluation never calls it.
func (m *Machine) SetPivotHook(f func(pivots int)) { m.hook = f }

// Counters reports the machine's lifetime work: evals counts Prob and
// ProbDeriv calls, pivots counts Shannon pivot assignments evaluated by
// shared-variable programs (0 for read-once programs). Observability
// instrumentation reads these to attribute lineage work to a request.
func (m *Machine) Counters() (evals, pivots int64) { return m.evals, m.pivots }

// inside runs the forward pass under the current pins and returns the
// root probability. Multiplication order matches the tree walk's
// probReadOnce child order, so read-once results are bit-identical.
func (m *Machine) inside(probs []float64) float64 {
	p := m.prog
	vals := m.vals
	for i := range p.code {
		ins := &p.code[i]
		switch ins.op {
		case opFalse:
			vals[i] = 0
		case opTrue:
			vals[i] = 1
		case opLoad:
			if pin := m.pinned[ins.arg]; pin >= 0 {
				vals[i] = float64(pin)
			} else {
				vals[i] = clamp01(probs[ins.arg])
			}
		case opNot:
			vals[i] = 1 - vals[i-1]
		case opAnd:
			v := 1.0
			for _, c := range p.kids[ins.kids : ins.kids+ins.arg] {
				v *= vals[c]
			}
			vals[i] = v
		case opOr:
			q := 1.0
			for _, c := range p.kids[ins.kids : ins.kids+ins.arg] {
				q *= 1 - vals[c]
			}
			vals[i] = 1 - q
		}
	}
	return vals[len(p.code)-1]
}

// outside runs the backward pass after inside, accumulating w·(∂P/∂p
// of slot) into deriv for every unpinned slot. Sibling products use the
// same prefix/suffix order as the tree walk's outsidePass, so read-once
// derivative rows are bit-identical to Derivatives.
func (m *Machine) outside(deriv []float64, w float64) {
	p := m.prog
	vals, out, pref := m.vals, m.out, m.pref
	out[len(p.code)-1] = w
	for i := len(p.code) - 1; i >= 0; i-- {
		o := out[i]
		ins := &p.code[i]
		switch ins.op {
		case opLoad:
			if m.pinned[ins.arg] < 0 {
				deriv[ins.arg] += o
			}
		case opNot:
			out[i-1] = -o
		case opAnd:
			cs := p.kids[ins.kids : ins.kids+ins.arg]
			pref[0] = 1
			for k, c := range cs {
				pref[k+1] = pref[k] * vals[c]
			}
			suffix := 1.0
			for k := len(cs) - 1; k >= 0; k-- {
				out[cs[k]] = o * pref[k] * suffix
				suffix *= vals[cs[k]]
			}
		case opOr:
			cs := p.kids[ins.kids : ins.kids+ins.arg]
			pref[0] = 1
			for k, c := range cs {
				pref[k+1] = pref[k] * (1 - vals[c])
			}
			suffix := 1.0
			for k := len(cs) - 1; k >= 0; k-- {
				out[cs[k]] = o * pref[k] * suffix
				suffix *= 1 - vals[cs[k]]
			}
		}
	}
}

// Prob returns the exact probability of the compiled formula when slot
// i's variable is true with probability probs[i] (len = NumSlots).
// Read-once programs take one flat pass; shared-variable programs
// enumerate the precomputed pivot assignments (2^shared flat passes).
func (m *Machine) Prob(probs []float64) float64 {
	m.evals++
	if len(m.prog.shared) == 0 {
		return m.inside(probs)
	}
	return m.probShared(probs, nil)
}

// ProbDeriv computes the probability and, into deriv (len = NumSlots,
// overwritten), every variable's derivative ∂P/∂p(slot) in one fused
// sweep. For read-once programs this is a single allocation-free
// inside–outside pass; shared-variable programs get exact derivatives
// from the pivot enumeration (for pivot v, ∂P/∂p(v) aggregates
// P|v=1 − P|v=0 over the co-pivot assignments, by multilinearity).
func (m *Machine) ProbDeriv(probs, deriv []float64) float64 {
	if len(deriv) != len(m.prog.vars) {
		panic("lineage: ProbDeriv deriv length mismatch")
	}
	m.evals++
	for i := range deriv {
		deriv[i] = 0
	}
	if len(m.prog.shared) == 0 {
		prob := m.inside(probs)
		m.outside(deriv, 1)
		return prob
	}
	return m.probShared(probs, deriv)
}

// probShared enumerates all truth assignments of the pivot slots. For
// each assignment σ with weight w(σ) = Π p/1−p it evaluates the now
// effectively read-once residual with one flat pass; when deriv is
// non-nil it also back-propagates w(σ)-scaled derivatives for unpinned
// slots and accumulates pivot derivatives via weights that exclude the
// pivot's own factor.
func (m *Machine) probShared(probs []float64, deriv []float64) float64 {
	p := m.prog
	n := len(p.shared)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		m.pivots++
		if m.hook != nil {
			m.hook(1)
		}
		w := 1.0
		for k, s := range p.shared {
			pv := clamp01(probs[s])
			if mask&(1<<k) != 0 {
				m.pinned[s] = 1
				m.fact[k] = pv
			} else {
				m.pinned[s] = 0
				m.fact[k] = 1 - pv
			}
			w *= m.fact[k]
		}
		if w == 0 && deriv == nil {
			continue
		}
		prob := m.inside(probs)
		total += w * prob
		if deriv == nil {
			continue
		}
		if w != 0 {
			m.outside(deriv, w)
		}
		// Pivot derivatives: ∂P/∂p(v) = Σ_σ′ w(σ′)·(P|v=1 − P|v=0)
		// where σ′ ranges over the other pivots; each enumerated σ
		// contributes ±prob scaled by the weight excluding v's factor.
		m.facPre[0] = 1
		for k := 0; k < n; k++ {
			m.facPre[k+1] = m.facPre[k] * m.fact[k]
		}
		suffix := 1.0
		for k := n - 1; k >= 0; k-- {
			wExcl := m.facPre[k] * suffix
			if mask&(1<<k) != 0 {
				deriv[p.shared[k]] += wExcl * prob
			} else {
				deriv[p.shared[k]] -= wExcl * prob
			}
			suffix *= m.fact[k]
		}
	}
	for _, s := range p.shared {
		m.pinned[s] = -1
	}
	return total
}

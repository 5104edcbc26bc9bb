package relation

import "strings"

// rowPred is a predicate compiled to run on a row's value slice in
// place: the access-path leaf calls it on stored rows before any Tuple
// exists, so a rejected row allocates nothing. The top-level AND tree
// is flattened into conjuncts evaluated in order; `column <op>
// constant` over INTEGER/REAL/TEXT becomes a typed closure, any other
// conjunct calls Expr.Eval. A conjunct answers only where the tree walk
// provably agrees — every conjunct so far true and this one false is
// false whatever the tree's shape, all true is true — and anything else
// (a NULL, an error, a cell of another type) hands the row to EvalBool,
// the reference, so holds returns its result and its error text.
//
// A rowPred serves one operator and one drain at a time.
type rowPred struct {
	src Expr
	// conj holds one test per conjunct; sure is false where only the
	// tree walk can say.
	conj    []func(vals []Value) (holds, sure bool)
	scratch Tuple // the row as Expr.Eval sees it
}

// compilePred compiles e; nil (compiled to nil) holds of every row.
func compilePred(e Expr) *rowPred {
	if e == nil {
		return nil
	}
	p := &rowPred{src: e}
	for _, c := range splitConjuncts(e) {
		f := compileCompare(c)
		if f == nil {
			f = func([]Value) (bool, bool) {
				v, err := c.Eval(&p.scratch)
				b, ok := v.AsBool()
				return b, ok && err == nil
			}
		}
		p.conj = append(p.conj, f)
	}
	return p
}

// holds reports whether the predicate is definitely true of the row.
func (p *rowPred) holds(vals []Value) (bool, error) {
	if p == nil {
		return true, nil
	}
	p.scratch.Values = vals
	for _, f := range p.conj {
		if ok, sure := f(vals); !sure {
			return EvalBool(p.src, &p.scratch)
		} else if !ok {
			return false, nil
		}
	}
	return true, nil
}

// compileCompare specialises a comparison of a column with a numeric or
// text constant (either way round) on the constant's type; nil for any
// other e. INTEGER and REAL cells compare by value, as Compare does.
func compileCompare(e Expr) func(vals []Value) (holds, sure bool) {
	b, ok := e.(*Binary)
	if !ok {
		return nil
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return nil
	}
	// sign turns Compare(cell, constant) into Compare(left, right).
	op, sign := b.Op, 1
	col, isCol := b.Left.(*ColRef)
	c, isConst := b.Right.(Const)
	if !isCol || !isConst {
		col, isCol = b.Right.(*ColRef)
		c, isConst = b.Left.(Const)
		sign = -1
	}
	if !isCol || !isConst || col.Index < 0 {
		return nil
	}
	idx, k := col.Index, c.Value
	switch k.typ {
	case TypeInt, TypeFloat:
		kf, _ := k.AsFloat()
		return func(vals []Value) (bool, bool) {
			if idx < len(vals) {
				switch v := &vals[idx]; v.typ {
				case TypeInt:
					return opHolds(op, sign*cmpFloat(float64(v.i), kf)), true
				case TypeFloat:
					return opHolds(op, sign*cmpFloat(v.f, kf)), true
				}
			}
			return false, false
		}
	case TypeString:
		return func(vals []Value) (bool, bool) {
			if idx < len(vals) && vals[idx].typ == TypeString {
				return opHolds(op, sign*strings.Compare(vals[idx].s, k.s)), true
			}
			return false, false
		}
	}
	return nil
}

package relation

import (
	"fmt"
	"strings"

	"pcqe/internal/lineage"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return "?"
}

// AggSpec is one aggregate output column. A nil Arg means COUNT(*).
type AggSpec struct {
	Kind AggKind
	Arg  Expr
	Name string
}

// Aggregate groups input rows by the GroupBy expressions and computes
// aggregates per group. A group row's lineage is the conjunction of all
// contributing rows' lineages: the aggregate value is exactly right only
// if every contributing row is correct. (This is the conservative
// interpretation; probabilistic aggregate semantics proper would need
// per-possible-world values, outside this paper's scope.)
type Aggregate struct {
	Input   Operator
	GroupBy []Expr
	Aggs    []AggSpec

	out *Schema
	materialized
}

type aggState struct {
	count int64
	sum   float64
	isInt bool
	min   Value
	max   Value
	init  bool
}

// Schema implements Operator.
func (a *Aggregate) Schema() *Schema {
	if a.out == nil {
		cols := make([]Column, 0, len(a.GroupBy)+len(a.Aggs))
		for _, g := range a.GroupBy {
			name := g.String()
			if cr, ok := g.(*ColRef); ok {
				name = cr.Col.Name
			}
			cols = append(cols, Column{Name: name, Type: g.Type()})
		}
		for _, spec := range a.Aggs {
			name := spec.Name
			if name == "" {
				arg := "*"
				if spec.Arg != nil {
					arg = spec.Arg.String()
				}
				name = strings.ToLower(spec.Kind.String()) + "(" + arg + ")"
			}
			cols = append(cols, Column{Name: name, Type: aggType(spec)})
		}
		a.out = &Schema{Columns: cols}
	}
	return a.out
}

func aggType(spec AggSpec) Type {
	switch spec.Kind {
	case AggCount:
		return TypeInt
	case AggAvg:
		return TypeFloat
	default:
		if spec.Arg != nil && spec.Arg.Type() == TypeInt && spec.Kind == AggSum {
			return TypeInt
		}
		if spec.Arg != nil {
			return spec.Arg.Type()
		}
		return TypeFloat
	}
}

// Open implements Operator.
func (a *Aggregate) Open(at int64) error {
	a.rows, a.pos = rowStore{w: a.Schema().Len()}, 0
	var keys groups // the group keys, in first-seen order
	var states [][]aggState
	key := make([]Value, len(a.GroupBy))
	var t Tuple
	err := each(a.Input, at, func(b *batch) error {
		for i := range b.len() {
			t.Values = b.row(i)
			for j, g := range a.GroupBy {
				v, err := g.Eval(&t)
				if err != nil {
					return err
				}
				key[j] = v
			}
			g := keys.add(key, b.lins[i])
			if int(g) == len(states) {
				states = append(states, make([]aggState, len(a.Aggs)))
			}
			for j, spec := range a.Aggs {
				if err := states[g][j].update(spec, &t); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Global aggregate over an empty input still yields one row.
	if len(a.GroupBy) == 0 && len(states) == 0 {
		keys.add(key, lin{e: lineage.True()})
		states = append(states, make([]aggState, len(a.Aggs)))
	}
	rows, row := keys.fold(lineage.And), []Value(nil)
	for g, st := range states {
		row = append(row[:0], rows.row(g)...)
		for j, spec := range a.Aggs {
			row = append(row, st[j].result(spec))
		}
		a.rows.add(row, *rows.lin(g))
	}
	return nil
}

func (s *aggState) update(spec AggSpec, t *Tuple) error {
	if spec.Arg == nil {
		if spec.Kind != AggCount {
			return fmt.Errorf("relation: %s requires an argument", spec.Kind)
		}
		s.count++
		return nil
	}
	v, err := spec.Arg.Eval(t)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	s.count++
	switch spec.Kind {
	case AggCount:
	case AggSum, AggAvg:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("relation: %s requires numeric argument, got %s", spec.Kind, v.Type())
		}
		if !s.init {
			s.isInt = v.Type() == TypeInt
		} else if v.Type() != TypeInt {
			s.isInt = false
		}
		s.sum += f
	case AggMin, AggMax:
		if !s.init {
			s.min, s.max = v, v
		} else {
			if c, err := Compare(v, s.min); err != nil {
				return err
			} else if c < 0 {
				s.min = v
			}
			if c, err := Compare(v, s.max); err != nil {
				return err
			} else if c > 0 {
				s.max = v
			}
		}
	}
	s.init = true
	return nil
}

func (s *aggState) result(spec AggSpec) Value {
	switch spec.Kind {
	case AggCount:
		return Int(s.count)
	case AggSum:
		if s.count == 0 {
			return Null()
		}
		if s.isInt {
			return Int(int64(s.sum))
		}
		return Float(s.sum)
	case AggAvg:
		if s.count == 0 {
			return Null()
		}
		return Float(s.sum / float64(s.count))
	case AggMin:
		if !s.init {
			return Null()
		}
		return s.min
	case AggMax:
		if !s.init {
			return Null()
		}
		return s.max
	}
	return Null()
}

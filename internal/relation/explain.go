package relation

import (
	"fmt"
	"strings"
)

// Explain renders an operator tree as an indented plan, one operator per
// line, e.g.:
//
//	Project DISTINCT [Company, Income]
//	└─ HashJoin (CompanyInfo.Company = Proposal.Company)
//	   ├─ Scan CompanyInfo cols [Company, Income]
//	   └─ Scan Proposal filter (Proposal.Funding < 1000000) cols [Company]
func Explain(op Operator) string {
	return ExplainAnnotated(op, nil)
}

// ExplainAnnotated is Explain with per-operator annotations appended
// after the operator description (" -- note"). The cost-based planner
// supplies cardinality and cost estimates this way.
func ExplainAnnotated(op Operator, notes map[Operator]string) string {
	var b strings.Builder
	explain(&b, op, "", "", notes)
	return strings.TrimRight(b.String(), "\n")
}

func explain(b *strings.Builder, op Operator, prefix, childPrefix string, notes map[Operator]string) {
	b.WriteString(prefix)
	b.WriteString(describe(op))
	if note, ok := notes[op]; ok && note != "" {
		b.WriteString(" -- " + note)
	}
	b.WriteString("\n")
	children := childrenOf(op)
	for i, c := range children {
		last := i == len(children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		explain(b, c, childPrefix+branch, childPrefix+cont, notes)
	}
}

func describe(op Operator) string {
	switch o := op.(type) {
	case *access:
		if o.index != nil {
			return o.describe("IndexScan "+o.table.Name+" ("+o.table.schema.Columns[o.index.column].Name+" = "+o.key.String()+")", o.residual)
		}
		return o.describe("Scan "+o.table.Name, o.residual)
	case *AttachConfidence:
		return "AttachConfidence"
	case *Values:
		return fmt.Sprintf("Values (%d rows)", len(o.Rows))
	case *Select:
		return "Select (" + o.Pred.String() + ")"
	case *Project:
		names := make([]string, len(o.Exprs))
		for i, e := range o.Exprs {
			names[i] = e.String()
			if i < len(o.Names) && o.Names[i] != "" {
				names[i] = o.Names[i]
			}
		}
		d := "Project"
		if o.Distinct {
			d += " DISTINCT"
		}
		return d + " [" + strings.Join(names, ", ") + "]"
	case *Limit:
		if o.Offset > 0 {
			return fmt.Sprintf("Limit %d offset %d", o.N, o.Offset)
		}
		return fmt.Sprintf("Limit %d", o.N)
	case *Sort:
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = k.Expr.String()
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		return "Sort [" + strings.Join(keys, ", ") + "]"
	case *Rename:
		return "Rename AS " + o.Alias
	case *ColumnMap:
		names := make([]string, len(o.Indices))
		in := o.Input.Schema()
		for i, idx := range o.Indices {
			names[i] = in.Columns[idx].QualifiedName()
		}
		return "ColumnMap [" + strings.Join(names, ", ") + "]"
	case *HashJoin:
		pairs := make([]string, len(o.LeftKeys))
		ls, rs := o.Left.Schema(), o.Right.Schema()
		for i := range o.LeftKeys {
			pairs[i] = ls.Columns[o.LeftKeys[i]].QualifiedName() + " = " + rs.Columns[o.RightKeys[i]].QualifiedName()
		}
		return "HashJoin (" + strings.Join(pairs, " AND ") + ")"
	case *IndexJoin:
		// One line carries the whole inner side: it is probed through
		// its index, not run as a child.
		head := "IndexJoin (" + o.Outer.Schema().Columns[o.OuterKey].QualifiedName() + " = " + o.Inner.Schema().Columns[o.InnerKey].QualifiedName() + ")"
		leaf, alias := leafOf(o.Inner)
		if leaf == nil {
			return head
		}
		if alias != "" {
			alias = " AS " + alias
		}
		return leaf.describe(head+" probe "+leaf.table.Name+alias, leaf.filter)
	case *NestedLoopJoin:
		if o.Pred == nil {
			return "NestedLoopJoin (cross)"
		}
		return "NestedLoopJoin (" + o.Pred.String() + ")"
	case *Union:
		if o.All {
			return "Union ALL"
		}
		return "Union"
	case *Intersect:
		return "Intersect"
	case *Except:
		return "Except"
	case *Aggregate:
		parts := make([]string, 0, len(o.GroupBy)+len(o.Aggs))
		for _, g := range o.GroupBy {
			parts = append(parts, g.String())
		}
		for _, a := range o.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			parts = append(parts, a.Kind.String()+"("+arg+")")
		}
		return "Aggregate [" + strings.Join(parts, ", ") + "]"
	}
	return fmt.Sprintf("%T", op)
}

func childrenOf(op Operator) []Operator {
	switch o := op.(type) {
	case *Select:
		return []Operator{o.Input}
	case *Project:
		return []Operator{o.Input}
	case *Limit:
		return []Operator{o.Input}
	case *Sort:
		return []Operator{o.Input}
	case *Rename:
		return []Operator{o.Input}
	case *ColumnMap:
		return []Operator{o.Input}
	case *HashJoin:
		return []Operator{o.Left, o.Right}
	case *NestedLoopJoin:
		return []Operator{o.Left, o.Right}
	case *IndexJoin:
		return []Operator{o.Outer}
	case *Union:
		return []Operator{o.Left, o.Right}
	case *Intersect:
		return []Operator{o.Left, o.Right}
	case *Except:
		return []Operator{o.Left, o.Right}
	case *Aggregate:
		return []Operator{o.Input}
	case *AttachConfidence:
		return []Operator{o.Input}
	}
	return nil
}

// InSet tests membership of the child's value in a materialized set of
// value keys, a NULL's included (used for IN (SELECT ...) subqueries
// after the subquery has been evaluated). It answers as the set written
// out as x = a OR x = b … would: a hit is TRUE; a miss is NULL when the
// set holds NULL and FALSE otherwise; a NULL child is NULL unless the
// set is empty, where IN is FALSE.
type InSet struct {
	Child  Expr
	Set    map[string]bool
	Negate bool
	// Label describes the subquery for Explain/String.
	Label string
}

// Eval implements Expr.
func (e *InSet) Eval(t *Tuple) (Value, error) {
	v, err := e.Child.Eval(t)
	if err != nil {
		return Value{}, err
	}
	switch {
	case len(e.Set) == 0:
		return Bool(e.Negate), nil
	case !v.IsNull() && e.Set[v.Key()]:
		return Bool(!e.Negate), nil
	case v.IsNull() || e.Set[Null().Key()]:
		return Null(), nil
	}
	return Bool(e.Negate), nil
}

// Type implements Expr.
func (e *InSet) Type() Type { return TypeBool }

func (e *InSet) String() string {
	op := " IN "
	if e.Negate {
		op = " NOT IN "
	}
	label := e.Label
	if label == "" {
		label = fmt.Sprintf("(%d values)", len(e.Set))
	}
	return e.Child.String() + op + label
}

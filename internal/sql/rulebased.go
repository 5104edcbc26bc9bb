package sql

import "pcqe/internal/relation"

// This file is the reference planner of the differential suite and the
// planner figure's baseline: FROM in statement order, a hash join where
// the ON clause is a pure equi-join, the WHERE filter on top. It shares
// table lookup (planRelation), the select list, aggregation and
// expression lowering with the engine's planner, and nothing of its
// conjunct placement, pruning, estimates or join search — a reference
// built on the join core it checks would stop being one. Nothing here is
// reachable from PlanDetailedAt.

// PlanRuleBased compiles the statement with the reference planner:
// joins in statement order, no reordering, no pushdown beyond the
// single-table filter push into the leaf. Like PlanDetailedAt, it reads
// committed version asOf at plan time.
func PlanRuleBased(cat *relation.Catalog, stmt *SelectStmt, asOf int64) (relation.Operator, error) {
	p := newPlanner(cat, asOf)
	p.fromWhere = planFromWhere
	op, _, err := p.stmt(stmt)
	return op, err
}

// planFromWhere is the statement-order FROM+WHERE block: joins as
// written, then AttachConfidence when referenced, then the WHERE
// filter. It estimates nothing.
func planFromWhere(p *planner, stmt *SelectStmt) (relation.Operator, float64, error) {
	from, err := p.planRelation(stmt.From, false)
	if err != nil {
		return nil, 0, err
	}
	op := from.op
	for _, j := range stmt.Joins {
		right, err := p.planRelation(j.Table, false)
		if err != nil {
			return nil, 0, err
		}
		on, err := p.resolveSubqueries(j.On)
		if err != nil {
			return nil, 0, err
		}
		op, err = planJoin(op, right.op, on)
		if err != nil {
			return nil, 0, err
		}
	}
	if stmtReferencesConfidence(stmt) {
		op = &relation.AttachConfidence{Input: op, Catalog: p.cat}
	}
	// IN-subqueries are materialized first; they must be uncorrelated.
	where, err := p.resolveSubqueries(stmt.Where)
	if err != nil {
		return nil, 0, err
	}
	if where != nil {
		pred, err := compileExpr(where, op.Schema())
		if err != nil {
			return nil, 0, err
		}
		// Over a single table the filter moves into the leaf, which
		// answers an equality conjunct from a hash index when one exists.
		op = relation.Filter(op, pred)
	}
	return op, 0, nil
}

// planJoin prefers a hash join when the ON condition is a conjunction of
// equality comparisons between one column of each side; otherwise it
// falls back to a nested-loop join over the concatenated schema.
func planJoin(left, right relation.Operator, on ExprNode) (relation.Operator, error) {
	if on == nil {
		return &relation.NestedLoopJoin{Left: left, Right: right}, nil
	}
	if lk, rk, ok := equiJoinKeys(on, left.Schema(), right.Schema()); ok {
		return &relation.HashJoin{Left: left, Right: right, LeftKeys: lk, RightKeys: rk}, nil
	}
	combined := left.Schema().Concat(right.Schema())
	pred, err := compileExpr(on, combined)
	if err != nil {
		return nil, err
	}
	return &relation.NestedLoopJoin{Left: left, Right: right, Pred: pred}, nil
}

// equiJoinKeys detects "a.x = b.y [AND ...]" patterns and resolves the
// column indices against the two input schemas.
func equiJoinKeys(on ExprNode, ls, rs *relation.Schema) (lk, rk []int, ok bool) {
	conjuncts := flattenAnd(on)
	for _, c := range conjuncts {
		be, isBin := c.(*BinaryExpr)
		if !isBin || be.Op != "=" {
			return nil, nil, false
		}
		li, lok := be.Left.(*Ident)
		ri, rok := be.Right.(*Ident)
		if !lok || !rok {
			return nil, nil, false
		}
		lidx, lerr := ls.Resolve(li.Qualifier, li.Name)
		ridx, rerr := rs.Resolve(ri.Qualifier, ri.Name)
		if lerr != nil || rerr != nil {
			// Maybe the identifiers are swapped across sides.
			lidx, lerr = ls.Resolve(ri.Qualifier, ri.Name)
			ridx, rerr = rs.Resolve(li.Qualifier, li.Name)
		}
		if lerr != nil || rerr != nil {
			return nil, nil, false
		}
		// Hash joins match on value keys; only types whose keys agree
		// exactly with Compare-equality qualify. A mismatched pair (e.g.
		// TEXT = INT) must take the nested-loop path so it raises the
		// same comparison error a WHERE clause would.
		if !relation.HashJoinableTypes(ls.Columns[lidx].Type, rs.Columns[ridx].Type) {
			return nil, nil, false
		}
		lk = append(lk, lidx)
		rk = append(rk, ridx)
	}
	return lk, rk, len(lk) > 0
}

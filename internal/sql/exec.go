package sql

import (
	"fmt"

	"pcqe/internal/cost"
	"pcqe/internal/relation"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Rows and Schema are set for SELECT.
	Rows   []*relation.Tuple
	Schema *relation.Schema
	// Affected counts rows inserted/updated/deleted.
	Affected int
	// Plan holds the EXPLAIN rendering.
	Plan string
	// Message is a short human-readable summary ("created table T").
	Message string
}

// Exec parses and executes one statement of any kind against the
// catalog.
func Exec(cat *relation.Catalog, stmtText string) (*Result, error) {
	stmt, err := ParseStatement(stmtText)
	if err != nil {
		return nil, err
	}
	return ExecStatement(cat, stmt)
}

// ExecScript executes a semicolon-separated statement sequence, stopping
// at the first error; it returns the results of the statements that ran.
func ExecScript(cat *relation.Catalog, script string) ([]*Result, error) {
	stmts, err := ParseScript(script)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for i, stmt := range stmts {
		res, err := ExecStatement(cat, stmt)
		if err != nil {
			return out, fmt.Errorf("sql: statement %d: %w", i+1, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ExecStatement executes an already-parsed statement.
func ExecStatement(cat *relation.Catalog, stmt Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		snap := cat.Snapshot()
		defer snap.Release()
		op, _, rows, err := planAndRun(cat, s, snap.Version())
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Schema: op.Schema(), Message: fmt.Sprintf("%d rows", len(rows))}, nil
	case *ExplainStmt:
		// Pinned like SELECT: the plan shown is the one a query at this
		// version would run, not one torn by a concurrent commit.
		snap := cat.Snapshot()
		defer snap.Release()
		op, info, err := PlanDetailedAt(cat, s.Query, snap.Version())
		if err != nil {
			return nil, err
		}
		return &Result{
			Plan:    relation.ExplainAnnotated(op, info.Notes),
			Message: "plan (lineage " + info.LineageHint + ")",
		}, nil
	case *CreateTableStmt:
		cols := make([]relation.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = relation.Column{Name: c.Name, Type: c.Type}
		}
		if _, err := cat.CreateTable(s.Name, relation.NewSchema(cols...)); err != nil {
			return nil, err
		}
		return &Result{Message: "created table " + s.Name}, nil
	case *CreateIndexStmt:
		tab, err := cat.Table(s.Table)
		if err != nil {
			return nil, errAt(s.Tok, "%v", err)
		}
		if _, err := tab.CreateIndex(s.Column); err != nil {
			return nil, errAt(s.Tok, "%v", err)
		}
		return &Result{Message: "created index on " + s.Table + "(" + s.Column + ")"}, nil
	case *DropTableStmt:
		if err := cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "dropped table " + s.Name}, nil
	case *InsertStmt:
		return execInsert(cat, s)
	case *DeleteStmt:
		return execDelete(cat, s)
	case *UpdateStmt:
		return execUpdate(cat, s)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

func execInsert(cat *relation.Catalog, s *InsertStmt) (*Result, error) {
	tab, err := cat.Table(s.Table)
	if err != nil {
		return nil, errAt(s.Tok, "%v", err)
	}
	schema := tab.Schema()
	// Column mapping: position in VALUES row -> schema index.
	var colIdx []int
	if len(s.Columns) == 0 {
		colIdx = make([]int, schema.Len())
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		colIdx = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			idx, err := schema.Resolve("", name)
			if err != nil {
				return nil, errAt(s.Tok, "%v", err)
			}
			colIdx[i] = idx
		}
	}

	confidence := 1.0
	var fn cost.Function
	empty := relation.NewTuple(nil, nil)
	if s.Confidence != nil {
		v, err := evalConst(s.Confidence, empty)
		if err != nil {
			return nil, err
		}
		f, ok := v.AsFloat()
		if !ok {
			return nil, errAt(s.Tok, "WITH CONFIDENCE expects a number, got %s", v.Type())
		}
		confidence = f
	}
	if s.CostRate != nil {
		v, err := evalConst(s.CostRate, empty)
		if err != nil {
			return nil, err
		}
		f, ok := v.AsFloat()
		if !ok {
			return nil, errAt(s.Tok, "COST expects a number, got %s", v.Type())
		}
		fn = cost.Linear{Rate: f}
	}

	// One transaction spans the whole VALUES list: a multi-row INSERT
	// commits atomically as a single version instead of one commit per
	// row, so a failing row leaves nothing behind and concurrent
	// snapshots never observe half the statement.
	x := cat.Begin()
	n := 0
	for _, row := range s.Rows {
		if len(row) != len(colIdx) {
			x.Rollback()
			return nil, errAt(s.Tok, "INSERT row has %d values, expected %d", len(row), len(colIdx))
		}
		values := make([]relation.Value, schema.Len())
		for i, e := range row {
			v, err := evalConst(e, empty)
			if err != nil {
				x.Rollback()
				return nil, err
			}
			values[colIdx[i]] = v
		}
		if _, err := x.Insert(tab, values, confidence, fn); err != nil {
			x.Rollback()
			return nil, err
		}
		n++
	}
	if _, err := x.Commit(); err != nil {
		return nil, err
	}
	return &Result{Affected: n, Message: fmt.Sprintf("inserted %d rows", n)}, nil
}

// withConfidenceColumn extends a schema with the _confidence
// pseudo-column for mutation predicates.
func withConfidenceColumn(s *relation.Schema) *relation.Schema {
	cols := append([]relation.Column{}, s.Columns...)
	cols = append(cols, relation.Column{Name: relation.ConfidenceColumn, Type: relation.TypeFloat})
	return relation.NewSchema(cols...)
}

// evalConst compiles and evaluates a row-independent expression (INSERT
// values, WITH CONFIDENCE operands).
func evalConst(e ExprNode, empty *relation.Tuple) (relation.Value, error) {
	compiled, err := compileExpr(e, relation.NewSchema())
	if err != nil {
		return relation.Value{}, err
	}
	return compiled.Eval(empty)
}

// mutateWhere runs a DELETE or UPDATE inside the one transaction it
// commits: the writer lock is taken first, so the WHERE clause's
// IN-subqueries read exactly the version the mutation then applies
// over — no commit can slip between the two. Any error rolls back.
func mutateWhere(cat *relation.Catalog, where ExprNode, schema *relation.Schema, apply func(*relation.Txn, relation.Expr) (int, error)) (int, error) {
	x := cat.Begin()
	var pred relation.Expr
	where, err := newPlanner(cat, x.ReadVersion()).resolveSubqueries(where)
	if err == nil && where != nil {
		pred, err = compileExpr(where, schema)
	}
	n := 0
	if err == nil {
		n, err = apply(x, pred)
	}
	if err != nil {
		x.Rollback()
		return 0, err
	}
	if _, err := x.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

func execDelete(cat *relation.Catalog, s *DeleteStmt) (*Result, error) {
	tab, err := cat.Table(s.Table)
	if err != nil {
		return nil, errAt(s.Tok, "%v", err)
	}
	n, err := mutateWhere(cat, s.Where, withConfidenceColumn(tab.Schema()), func(x *relation.Txn, pred relation.Expr) (int, error) {
		return x.Delete(tab, pred)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Message: fmt.Sprintf("deleted %d rows", n)}, nil
}

func execUpdate(cat *relation.Catalog, s *UpdateStmt) (*Result, error) {
	tab, err := cat.Table(s.Table)
	if err != nil {
		return nil, errAt(s.Tok, "%v", err)
	}
	schema := tab.Schema()
	// Assignments and predicates may read the _confidence pseudo-column;
	// the mutation layer evaluates them over the row image extended with
	// the current confidence.
	extended := withConfidenceColumn(schema)
	specs := make([]relation.UpdateSpec, len(s.Sets))
	for i, set := range s.Sets {
		val, err := compileExpr(set.Value, extended)
		if err != nil {
			return nil, err
		}
		if set.Column == relation.ConfidenceColumn {
			specs[i] = relation.UpdateSpec{Column: -1, Value: val}
			continue
		}
		idx, err := schema.Resolve("", set.Column)
		if err != nil {
			return nil, errAt(s.Tok, "%v", err)
		}
		specs[i] = relation.UpdateSpec{Column: idx, Value: val}
	}
	n, err := mutateWhere(cat, s.Where, extended, func(x *relation.Txn, pred relation.Expr) (int, error) {
		return x.Update(tab, pred, specs)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Message: fmt.Sprintf("updated %d rows", n)}, nil
}

package analysis

import (
	"go/ast"
	"go/types"
)

// Snapdiscipline returns the snapdiscipline analyzer. Since the MVCC
// rewrite, every relation read outside internal/relation must be pinned
// to one committed version: a snapshot (Table.RowsAt, Snapshot
// confidence lookups) or a version-pinned operator drain
// (relation.RunAt). The latest-version conveniences — Table.Rows(),
// relation.Run, Index.Lookup, Catalog.Confidence/Catalog.ProbOf — each
// re-resolve version chains at call time, so two of them in one request
// can observe different commits and tear a logically atomic read (an
// operator probing an index with Lookup would join its pinned outer
// rows to whatever inner rows are newest). The
// exclude list carves out internal/relation itself, which implements
// the version store and must touch raw chains.
func Snapdiscipline(exclude ...string) *Analyzer {
	return &Analyzer{
		Name:    "snapdiscipline",
		Doc:     "relation reads outside internal/relation go through pinned snapshots (RowsAt/RunAt/Snapshot), never latest-version conveniences that can mix commits",
		Exclude: exclude,
		Run:     runSnapdiscipline,
	}
}

func runSnapdiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.SelectorExpr:
				checkSnapCall(pass, call, fun)
			case *ast.Ident:
				if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok && fun.Name == "Run" && firstParamIsOperator(obj) {
					pass.Reportf(call.Pos(), "relation.Run drains the operator at the latest committed version; pin the request's snapshot and use relation.RunAt so one plan cannot mix commits")
				}
			}
			return true
		})
	}
	return nil
}

func checkSnapCall(pass *Pass, call *ast.CallExpr, sel *ast.SelectorExpr) {
	// Package-qualified function call: relation.Run(op).
	if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && sel.Sel.Name == "Run" && obj.Type() != nil {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() == nil && firstParamIsOperator(obj) {
			pass.Reportf(call.Pos(), "relation.Run drains the operator at the latest committed version; pin the request's snapshot and use relation.RunAt so one plan cannot mix commits")
			return
		}
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	switch sel.Sel.Name {
	case "Rows":
		if namedTypeIs(recv, "Table") && len(call.Args) == 0 {
			pass.Reportf(call.Pos(), "Table.Rows() reads the latest committed version; pin a Snapshot and use RowsAt (or Scan with RunAt) so the read cannot mix commits")
		}
	case "Lookup":
		if namedTypeIs(recv, "Index") {
			pass.Reportf(call.Pos(), "Index.Lookup probes the latest committed version; an operator resolves index candidates at its pinned version (filter and join through the planned leaf, run with RunAt)")
		}
	case "Confidence", "ProbOf":
		if namedTypeIs(recv, "Catalog") {
			pass.Reportf(call.Pos(), "Catalog.%s resolves the latest committed version; read through a Snapshot (or AssignmentAt) pinned to the request's version", sel.Sel.Name)
		}
	}
}

// firstParamIsOperator reports whether the function's first parameter
// is the relation Operator interface — the signature shape of the
// unpinned relation.Run drain.
func firstParamIsOperator(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return namedTypeIs(sig.Params().At(0).Type(), "Operator")
}

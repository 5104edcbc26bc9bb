package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Txnmutate returns the txnmutate analyzer. All mutation of versioned
// state must flow through the MVCC write protocol; two of its rules are
// checked here (numbered as in DESIGN.md §7):
//
//  1. version-chain publication — slot.head.Store and the cow helper —
//     happens only inside *Txn methods, the single writer;
//  4. the auto-committing single-row loaders (Table.Insert/MustInsert)
//     inside a loop commit one version per iteration — a torn batch
//     with one commit per row; open one Txn around the loop instead.
//
// Rules 2 and 3 are held by types instead: a commit publishes its
// (version, planEpoch, confEpoch) triple as one immutable record behind
// one atomic pointer, so a torn triple cannot be written, and a
// published BaseTuple has no exported field to write.
func Txnmutate(scope ...string) *Analyzer {
	return &Analyzer{
		Name:  "txnmutate",
		Doc:   "versioned-state mutation stays inside the Txn protocol: head stores only in Txn methods, no per-row auto-commit loops",
		Scope: scope,
		Run:   runTxnmutate,
	}
}

var autoCommitTable = map[string]bool{"Insert": true, "MustInsert": true}

func runTxnmutate(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inTxn := receiverTypeName(fd) == "Txn"
			// reported dedupes rule-4 findings when loops nest: the outer
			// loop's sweep already covers the inner body.
			reported := map[token.Pos]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if !inTxn {
						checkHeadPublish(pass, n)
					}
				case *ast.ForStmt:
					checkAutoCommitLoop(pass, n.Body, reported)
				case *ast.RangeStmt:
					checkAutoCommitLoop(pass, n.Body, reported)
				}
				return true
			})
		}
	}
	return nil
}

func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkHeadPublish flags rule 1 in a function that is not a Txn method:
// a call of the cow helper (bare or as a method) or a Store/Add on a
// field named head.
func checkHeadPublish(pass *Pass, call *ast.CallExpr) {
	var name string
	var recv ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name, recv = fun.Sel.Name, fun.X
	}
	switch name {
	case "cow":
		pass.Reportf(call.Pos(), "cow publishes a provisional version outside a Txn method; only the transaction single-writer may push version chains")
	case "Store", "Add":
		if inner, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok && inner.Sel.Name == "head" {
			pass.Reportf(call.Pos(), "slot.head.%s outside a Txn method publishes a version without the transaction protocol; route the mutation through a Txn", name)
		}
	}
}

// checkAutoCommitLoop flags rule 4: an auto-committing single-row
// loader called inside a loop body.
func checkAutoCommitLoop(pass *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if reported[call.Pos()] {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if autoCommitTable[sel.Sel.Name] && namedTypeIs(pass.TypesInfo.TypeOf(sel.X), "Table") {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(), "Table.%s auto-commits one version per loop iteration, tearing the batch across commits; open one Txn around the loop (Begin/…/Commit)", sel.Sel.Name)
		}
		return true
	})
}

// namedTypeIs reports whether t (after pointer deref) is a named type
// with the given name.
func namedTypeIs(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	named, ok := deref(t).(*types.Named)
	return ok && named.Obj().Name() == name
}

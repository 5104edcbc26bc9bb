package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Txnmutate returns the txnmutate analyzer. All mutation of versioned
// state must flow through the MVCC write protocol:
//
//  1. version-chain publication — slot.head.Store and the cow helper —
//     happens only inside *Txn methods, the single writer;
//  2. the version-counter triple (commitSeq, planEpoch, confEpoch) is
//     written only after verMu is acquired in the same function, the
//     lock order that keeps Snapshot() reading a consistent triple;
//  3. published BaseTuple versions are immutable: assigning to an
//     exported BaseTuple field mutates a version concurrent snapshot
//     readers may hold (a row's values are no field: the version names
//     its record, whose cells nothing writes twice);
//  4. the auto-committing single-row loaders (Table.Insert/MustInsert)
//     inside a loop commit one version per iteration — a torn batch
//     with one commitSeq per row; open one Txn around the loop instead.
func Txnmutate(scope ...string) *Analyzer {
	return &Analyzer{
		Name:  "txnmutate",
		Doc:   "versioned-state mutation stays inside the Txn protocol: head stores only in Txn methods, verMu before version-counter writes, immutable published versions, no per-row auto-commit loops",
		Scope: scope,
		Run:   runTxnmutate,
	}
}

// version-counter fields whose writes publish a new version, and the
// exported BaseTuple fields that are frozen at publication.
var (
	versionCounterField = map[string]bool{"commitSeq": true, "planEpoch": true, "confEpoch": true}
	baseTupleField      = map[string]bool{"Var": true, "Confidence": true, "MaxConf": true, "Cost": true}
	autoCommitTable     = map[string]bool{"Insert": true, "MustInsert": true}
)

func runTxnmutate(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			inTxn := receiverTypeName(fd) == "Txn"
			lockPositions := verMuLockPositions(fd.Body)
			// reported dedupes rule-4 findings when loops nest: the outer
			// loop's sweep already covers the inner body.
			reported := map[token.Pos]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkTxnCall(pass, n, inTxn, lockPositions)
				case *ast.AssignStmt:
					checkVersionFieldWrite(pass, n)
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

// verMuLockPositions records where the function acquires verMu, for the
// rule-2 ordering check.
func verMuLockPositions(body *ast.BlockStmt) []int {
	var locks []int
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			return true
		}
		if fieldChainEndsIn(sel.X, "verMu") {
			locks = append(locks, int(call.Pos()))
		}
		return true
	})
	return locks
}

// fieldChainEndsIn reports whether expr is a selector chain (or bare
// identifier) whose final element has the given name: x.catalog.verMu,
// c.verMu, verMu.
func fieldChainEndsIn(expr ast.Expr, name string) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		return e.Sel.Name == name
	}
	return false
}

func checkTxnCall(pass *Pass, call *ast.CallExpr, inTxn bool, lockPositions []int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Rule 1, bare helper form: cow(...) outside a Txn method.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "cow" && !inTxn {
			pass.Reportf(call.Pos(), "cow publishes a provisional version outside a Txn method; only the transaction single-writer may push version chains")
		}
		return
	}
	switch sel.Sel.Name {
	case "cow":
		if !inTxn {
			pass.Reportf(call.Pos(), "cow publishes a provisional version outside a Txn method; only the transaction single-writer may push version chains")
		}
	case "Store", "Add":
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch {
		case inner.Sel.Name == "head":
			// Rule 1: head stores publish chain versions.
			if !inTxn {
				pass.Reportf(call.Pos(), "slot.head.%s outside a Txn method publishes a version without the transaction protocol; route the mutation through a Txn", sel.Sel.Name)
			}
		case versionCounterField[inner.Sel.Name]:
			// Rule 2: version counters only after verMu.Lock() earlier in
			// the same function.
			for _, lock := range lockPositions {
				if lock < int(call.Pos()) {
					return
				}
			}
			pass.Reportf(call.Pos(), "%s.%s without holding verMu: acquire verMu before publishing version counters so Snapshot() reads a consistent (commitSeq, planEpoch, confEpoch) triple", inner.Sel.Name, sel.Sel.Name)
		}
	}
}

// checkVersionFieldWrite flags rule 3: assignment to an exported field
// of a BaseTuple — published versions are immutable; mutation goes
// through a copy-on-write Txn version.
func checkVersionFieldWrite(pass *Pass, assign *ast.AssignStmt) {
	for _, lhs := range assign.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || !baseTupleField[sel.Sel.Name] {
			continue
		}
		// Only pointer receivers matter: published versions are shared as
		// *BaseTuple; a value copy (e.g. a solver's own BaseTuple struct)
		// is private and free to mutate.
		if ptr, ok := pass.TypesInfo.TypeOf(sel.X).(*types.Pointer); ok && namedTypeIs(ptr.Elem(), "BaseTuple") {
			pass.Reportf(assign.Pos(), "assignment to BaseTuple.%s mutates a published immutable version; write a new version through a Txn (Update/SetConfidence)", sel.Sel.Name)
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

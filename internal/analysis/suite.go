package analysis

// Suite returns the pcqelint analyzer suite with the scopes used on
// this repository:
//
//   - confrange and errdiscipline run everywhere (the [0,1] contract and
//     typed-error discipline cross every layer);
//   - ctxpoll runs where the anytime runtime lives — the solvers and the
//     compiled lineage evaluator;
//   - txnmutate runs everywhere: versioned-state mutation stays inside
//     the Txn protocol, and batches never auto-commit per row;
//   - sharedstate runs on the engine packages the wire-protocol server
//     shares across sessions — and on the server itself: no
//     package-level mutable state anywhere a concurrent session can
//     reach.
//
// Every //lint:allow needs a justification after the analyzer name; a
// bare allow suppresses nothing.
func Suite() []*Analyzer {
	return []*Analyzer{
		Confrange(),
		Ctxpoll("internal/strategy", "internal/lineage"),
		Errdiscipline(),
		Txnmutate(),
		Sharedstate("internal/core", "internal/sql", "internal/strategy", "internal/relation", "internal/server"),
	}
}

// KnownAnalyzerNames returns the valid //lint:allow targets: every
// suite analyzer plus the "all" wildcard. collectAllows reports allow
// comments naming anything else — a typo'd name suppresses nothing and
// must not sit in the tree looking like it does.
func KnownAnalyzerNames() map[string]bool {
	names := map[string]bool{"all": true}
	for _, a := range Suite() {
		names[a.Name] = true
	}
	return names
}

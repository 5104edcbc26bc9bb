package core

import (
	"strings"
	"testing"

	"pcqe/internal/fault"
	"pcqe/internal/lineage"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// confidenceImage captures every base-tuple confidence in the venture
// database, for bit-identical before/after comparison.
func confidenceImage(t *testing.T, cat *relation.Catalog) map[lineage.Var]float64 {
	t.Helper()
	img := map[lineage.Var]float64{}
	snap := cat.Snapshot()
	defer snap.Release()
	for _, name := range cat.TableNames() {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range tab.RowsAt(snap) {
			img[b.Var()] = b.Confidence()
		}
	}
	return img
}

// TestMVCCApplyFaultRollsBackAtomically injects a fault into the middle
// of improvement-plan application: the transaction must roll back,
// every confidence must stay bit-identical to the pre-transaction
// state, and the failure must be journaled as a rollback event.
func TestMVCCApplyFaultRollsBackAtomically(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{}
	e.SetAudit(log)
	cat := e.Catalog()

	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil {
		t.Fatal("expected a proposal")
	}
	if resp.Version != cat.Version() {
		t.Fatalf("response version = %d, want %d", resp.Version, cat.Version())
	}
	if resp.Proposal.ReadVersion() != resp.Version {
		t.Fatalf("proposal read version = %d, want %d", resp.Proposal.ReadVersion(), resp.Version)
	}

	before := confidenceImage(t, cat)
	beforeVersion := cat.Version()

	defer fault.Reset()
	fault.Register("core.apply.increment", func() { panic("disk full") })
	fault.Enable()
	err = e.Apply(resp.Proposal)
	fault.Disable()
	if err == nil || !strings.Contains(err.Error(), "apply fault") {
		t.Fatalf("Apply error = %v, want apply fault", err)
	}

	// All-or-nothing: nothing committed, nothing changed, bit-identical.
	if v := cat.Version(); v != beforeVersion {
		t.Fatalf("version advanced to %d on a failed apply, want %d", v, beforeVersion)
	}
	after := confidenceImage(t, cat)
	if len(after) != len(before) {
		t.Fatalf("tuple count changed: %d → %d", len(before), len(after))
	}
	for v, p := range before {
		if after[v] != p {
			t.Fatalf("tuple %d confidence changed across failed apply: %v → %v", int(v), p, after[v])
		}
	}
	// The rollback is journaled with the proposal's read version and no
	// commit version.
	rollbacks := log.ByKind(AuditRollback)
	if len(rollbacks) != 1 {
		t.Fatalf("rollback events = %d, want 1", len(rollbacks))
	}
	rb := rollbacks[0]
	if rb.ReadVersion != resp.Proposal.ReadVersion() || rb.CommitVersion != 0 {
		t.Fatalf("rollback versions = (%d,%d), want (%d,0)", rb.ReadVersion, rb.CommitVersion, resp.Proposal.ReadVersion())
	}
	if !strings.Contains(rb.Detail, "disk full") {
		t.Fatalf("rollback detail = %q", rb.Detail)
	}
	if !strings.Contains(rb.String(), "rollback") || !strings.Contains(rb.String(), "cause=") {
		t.Fatalf("rollback rendering = %q", rb.String())
	}
	if len(log.ByKind(AuditApply)) != 0 {
		t.Fatal("failed apply must not journal an apply event")
	}

	// With the fault cleared the same proposal applies and the query
	// releases its row.
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	resp2, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Released.Len() != 1 {
		t.Fatalf("after recovery: released = %d, want 1", resp2.Released.Len())
	}
}

// TestMVCCAuditVersionsBracketApplies drives two evaluate→apply cycles
// and checks the journal's version bookkeeping: every apply event
// brackets exactly one committed version (commit = read + 1, gap-free
// against Catalog.Version()), and the confidences it claims are exactly
// what a time-travel snapshot at the commit version shows.
func TestMVCCAuditVersionsBracketApplies(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{}
	e.SetAudit(log)
	cat := e.Catalog()

	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	// Tighten the policy and improve again, producing a second apply.
	if err := e.Policies().Add(policy.ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.3}); err != nil {
		t.Fatal(err)
	}
	resp, err = e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil {
		t.Fatal("tightened policy should need improvement")
	}
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}

	evals := log.ByKind(AuditEvaluate)
	if len(evals) != 2 {
		t.Fatalf("evaluate events = %d, want 2", len(evals))
	}
	for i, ev := range evals {
		if ev.ReadVersion <= 0 {
			t.Fatalf("evaluate %d has no read version", i)
		}
		if !strings.Contains(ev.String(), "read_version=") {
			t.Fatalf("evaluate rendering lacks read version: %q", ev.String())
		}
	}

	applies := log.ByKind(AuditApply)
	if len(applies) != 2 {
		t.Fatalf("apply events = %d, want 2", len(applies))
	}
	var lastCommit int64
	for i, ap := range applies {
		if ap.CommitVersion != ap.ReadVersion+1 {
			t.Fatalf("apply %d: commit %d, read %d — transaction must produce exactly one version",
				i, ap.CommitVersion, ap.ReadVersion)
		}
		if ap.CommitVersion <= lastCommit {
			t.Fatalf("apply %d: commit versions not increasing (%d after %d)", i, ap.CommitVersion, lastCommit)
		}
		lastCommit = ap.CommitVersion
		if ap.CommitVersion > cat.Version() {
			t.Fatalf("apply %d: commit version %d beyond catalog version %d", i, ap.CommitVersion, cat.Version())
		}
		// The journal is verifiable: a snapshot at the commit version shows
		// each increment at exactly its recorded target, and one version
		// earlier at exactly its recorded start.
		at, err := cat.SnapshotAt(ap.CommitVersion)
		if err != nil {
			t.Fatal(err)
		}
		beforeAt, err := cat.SnapshotAt(ap.CommitVersion - 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range ap.Increments {
			if got := at.ProbOf(inc.Var); got != inc.To {
				t.Fatalf("apply %d tuple %d: snapshot@%d = %v, journal says %v",
					i, int(inc.Var), ap.CommitVersion, got, inc.To)
			}
			if got := beforeAt.ProbOf(inc.Var); got != inc.From {
				t.Fatalf("apply %d tuple %d: snapshot@%d = %v, journal says from %v",
					i, int(inc.Var), ap.CommitVersion-1, got, inc.From)
			}
		}
		at.Release()
		beforeAt.Release()
	}
}

// TestMVCCReplayReconstructsConfidences folds the journal's apply
// events back into confidences and checks them — at the latest version
// and at each intermediate commit — against time-travel snapshots.
func TestMVCCReplayReconstructsConfidences(t *testing.T) {
	e := newVentureEngine(t, nil)
	log := &AuditLog{}
	e.SetAudit(log)
	cat := e.Catalog()

	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	for _, beta := range []float64{0.06, 0.3, 0.5} {
		if err := e.Policies().Add(policy.ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: beta}); err != nil {
			t.Fatal(err)
		}
		resp, err := e.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Proposal == nil {
			continue
		}
		if err := e.Apply(resp.Proposal); err != nil {
			t.Fatal(err)
		}
	}
	applies := log.ByKind(AuditApply)
	if len(applies) < 2 {
		t.Fatalf("apply events = %d, want at least 2", len(applies))
	}

	// At every apply's commit version, the replayed state must agree with
	// the snapshot, bit for bit.
	for _, ap := range applies {
		replayed := log.ReplayConfidences(ap.CommitVersion)
		snap, err := cat.SnapshotAt(ap.CommitVersion)
		if err != nil {
			t.Fatal(err)
		}
		for v, p := range replayed {
			if got := snap.ProbOf(v); got != p {
				t.Fatalf("replay@%d tuple %d = %v, snapshot = %v", ap.CommitVersion, int(v), p, got)
			}
		}
		snap.Release()
	}
	// The full replay matches the live catalog.
	full := log.ReplayConfidences(cat.Version())
	if len(full) == 0 {
		t.Fatal("full replay is empty")
	}
	for v, p := range full {
		if got := cat.AssignmentAt(cat.Version()).ProbOf(v); got != p {
			t.Fatalf("full replay tuple %d = %v, live catalog = %v", int(v), p, got)
		}
	}
	// Replaying up to a version before any apply reconstructs nothing.
	if pre := log.ReplayConfidences(applies[0].CommitVersion - 1); len(pre) != 0 {
		t.Fatalf("replay before first apply = %v, want empty", pre)
	}
}

// TestMVCCEvaluateUnaffectedByConcurrentCommits pins an evaluation's
// response version and checks released confidences stay attributable to
// that single version even when commits land right after the snapshot.
func TestMVCCEvaluateUnaffectedByConcurrentCommits(t *testing.T) {
	e := newVentureEngine(t, nil)
	cat := e.Catalog()
	req := Request{User: "sue", Query: ventureQuery, Purpose: "analysis"}

	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != cat.Version() {
		t.Fatalf("response version = %d, want %d", resp.Version, cat.Version())
	}
	// Replaying the same query against a historical snapshot at the
	// response's version reproduces the released confidence exactly.
	snap, err := cat.SnapshotAt(resp.Version)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for i := range resp.Released.Len() {
		row := resp.Released.At(i)
		if got := snap.Confidence(row.Tuple); got != row.Confidence {
			t.Fatalf("confidence at version %d = %v, response says %v", resp.Version, got, row.Confidence)
		}
	}
}

// TestMVCCEvaluateMultiPinsOneSnapshot commits a confidence change in
// the middle of a multi-query batch (during the second query's lineage
// phase). Every response and the shared proposal's instance must still
// read one committed version: the solver has to start from exactly the
// confidences the withheld rows were filtered under.
func TestMVCCEvaluateMultiPinsOneSnapshot(t *testing.T) {
	e := overlapEngine(t)
	cat := e.Catalog()
	items, err := cat.Table("Items")
	if err != nil {
		t.Fatal(err)
	}
	victim := items.RowsAt(cat.Snapshot())[0].Var()

	defer fault.Reset()
	queries := 0
	fault.Register("core.lineage.row", func() {
		if queries++; queries == 2 {
			x := cat.Begin()
			if err := x.SetConfidence(victim, 0.3); err != nil {
				t.Error(err)
			}
			if _, err := x.Commit(); err != nil {
				t.Error(err)
			}
		}
	})
	fault.Enable()
	before := cat.Version()
	resps, prop, err := e.EvaluateMulti(multiReqs())
	if err != nil {
		t.Fatal(err)
	}
	if cat.Version() != before+1 {
		t.Fatalf("catalog version = %d, want %d: the mid-batch commit did not happen", cat.Version(), before+1)
	}
	if prop == nil {
		t.Fatal("expected a shared proposal")
	}
	for i, resp := range resps {
		if resp.Version != prop.ReadVersion() {
			t.Errorf("response %d read version %d, shared proposal built at version %d",
				i, resp.Version, prop.ReadVersion())
		}
	}
	for _, inc := range prop.Increments() {
		if inc.Var == victim && inc.From != 0.2 {
			t.Errorf("shared plan starts tuple %d from %v, want the filtered-under confidence 0.2", int(victim), inc.From)
		}
	}
}

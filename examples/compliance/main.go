// Compliance shows the governance surface of the library: the database
// is built and maintained through SQL (CREATE TABLE / INSERT ... WITH
// CONFIDENCE / CREATE INDEX), query plans are inspectable with EXPLAIN,
// every policy decision and paid improvement lands in an audit journal,
// and the paper's Section 1 comparison with the Biba strict-integrity
// model is played out on the same data: Biba's all-or-nothing levels
// either starve the analyst or over-share, while confidence policies cut
// per task.
//
// Run with: go run ./examples/compliance
package main

import (
	"fmt"
	"log"

	"pcqe"
)

func main() {
	cat := pcqe.NewCatalog()

	// --- 1. Build the database in SQL, confidence attached per batch. ---
	results, err := pcqe.ExecScript(cat, `
		CREATE TABLE Claims (Patient TEXT, Procedure_ TEXT, Amount REAL);
		INSERT INTO Claims VALUES
			('p1', 'mri', 1200.0), ('p2', 'xray', 150.0)
			WITH CONFIDENCE 0.92 COST 400;
		INSERT INTO Claims VALUES
			('p3', 'mri', 1250.0), ('p4', 'ct', 900.0)
			WITH CONFIDENCE 0.55 COST 120;
		INSERT INTO Claims VALUES ('p5', 'xray', 160.0)
			WITH CONFIDENCE 0.3 COST 60;
		CREATE INDEX ON Claims (Procedure_);
	`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Println(" ", r.Message)
	}

	// --- 2. EXPLAIN shows the plan (the index serves the equality). ---
	res, err := pcqe.Exec(cat, `EXPLAIN SELECT Patient, Amount FROM Claims WHERE Procedure_ = 'mri'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nquery plan:")
	fmt.Println(res.Plan)

	// --- 3. Policies and the audit journal. ---
	rbac := pcqe.NewRBAC()
	rbac.AddRole("auditor")
	must(rbac.AssignUser("ada", "auditor"))
	purposes := pcqe.NewPurposeTree()
	must(purposes.Add("fraud-review", ""))
	store := pcqe.NewPolicyStore(rbac, purposes)
	must(store.Add(pcqe.ConfidencePolicy{Role: "auditor", Purpose: "fraud-review", Beta: 0.5}))

	engine := pcqe.NewEngine(cat, store, nil)
	journal := &pcqe.AuditLog{}
	engine.SetAudit(journal)

	req := pcqe.Request{
		User: "ada", Purpose: "fraud-review", MinFraction: 1.0,
		Query: `SELECT Patient, Procedure_, Amount FROM Claims ORDER BY Amount DESC`,
	}
	resp, err := engine.Evaluate(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- ada (auditor, fraud review, β=0.5) ---")
	fmt.Print(resp.ReportWithLineage())
	if resp.Proposal != nil {
		if err := engine.Apply(resp.Proposal); err != nil {
			log.Fatal(err)
		}
		resp, err = engine.Evaluate(req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\n--- after paid verification ---")
		fmt.Print(resp.Report())
	}

	fmt.Println("\naudit journal:")
	for _, e := range journal.Events() {
		fmt.Println(" ", e)
	}
	fmt.Printf("total improvement spend: %.4g\n", journal.TotalImprovementSpend())

	// --- 4. The Biba contrast (paper Section 1): map confidences onto a
	// 3-level integrity ladder and check what a medium-integrity subject
	// may read — it is all-or-nothing per level, with no notion of task
	// and no way to *buy* access to a specific record. ---
	fmt.Println("\nBiba strict integrity on the same data:")
	biba, err := pcqe.NewBiba("low", "medium", "high")
	if err != nil {
		log.Fatal(err)
	}
	must(biba.SetSubject("ada", "high"))
	claims, err := cat.Table("Claims")
	if err != nil {
		log.Fatal(err)
	}
	// Pin a snapshot so the Biba walk sees one committed version.
	snap := cat.Snapshot()
	defer snap.Release()
	readable := 0
	for i, row := range claims.RowsAt(snap) {
		obj := fmt.Sprintf("claim-%d", i)
		must(biba.SetObject(obj, biba.LevelForConfidence(row.Confidence())))
		if biba.CanRead("ada", obj) {
			readable++
		}
	}
	fmt.Printf("  ada (high-integrity) may read %d of %d claims — fixed by level, regardless of task;\n",
		readable, claims.Len())
	fmt.Println("  confidence policies instead released per-row, per-purpose, and priced the upgrade.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

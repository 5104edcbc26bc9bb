package pcqe_test

import (
	"fmt"
	"log"

	"pcqe"
)

// Example walks the paper's running example through the public API: the
// manager's query is withheld at β = 0.06, the planner proposes the
// cheapest confidence increment, and after applying it the row is
// released at confidence 0.065.
func Example() {
	cat := pcqe.NewCatalog()
	proposal, err := cat.CreateTable("Proposal", pcqe.NewSchema(
		pcqe.Column{Name: "Company", Type: pcqe.TypeString},
		pcqe.Column{Name: "Funding", Type: pcqe.TypeFloat},
	))
	if err != nil {
		log.Fatal(err)
	}
	info, err := cat.CreateTable("CompanyInfo", pcqe.NewSchema(
		pcqe.Column{Name: "Company", Type: pcqe.TypeString},
		pcqe.Column{Name: "Income", Type: pcqe.TypeFloat},
	))
	if err != nil {
		log.Fatal(err)
	}
	// ZStart's two proposals (tuples 02/03) and its financials (13).
	proposal.MustInsert(0.3, pcqe.LinearCost{Rate: 1000},
		pcqe.String("ZStart"), pcqe.Float(800_000))
	proposal.MustInsert(0.4, pcqe.LinearCost{Rate: 100},
		pcqe.String("ZStart"), pcqe.Float(900_000))
	info.MustInsert(0.1, pcqe.LinearCost{Rate: 2000},
		pcqe.String("ZStart"), pcqe.Float(120_000))

	rbac := pcqe.NewRBAC()
	rbac.AddRole("manager")
	if err := rbac.AssignUser("mark", "manager"); err != nil {
		log.Fatal(err)
	}
	purposes := pcqe.NewPurposeTree()
	if err := purposes.Add("investment", ""); err != nil {
		log.Fatal(err)
	}
	store := pcqe.NewPolicyStore(rbac, purposes)
	if err := store.Add(pcqe.ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.06}); err != nil {
		log.Fatal(err)
	}

	engine := pcqe.NewEngine(cat, store, nil)
	req := pcqe.Request{
		User: "mark", Purpose: "investment", MinFraction: 1.0,
		Query: `SELECT DISTINCT CompanyInfo.Company, Income
			FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
			WHERE Funding < 1000000`,
	}
	resp, err := engine.Evaluate(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released %d, withheld %d\n", resp.Released.Len(), len(resp.Withheld))
	fmt.Printf("improvement cost: %.0f\n", resp.Proposal.Cost())

	if err := engine.Apply(resp.Proposal); err != nil {
		log.Fatal(err)
	}
	resp, err = engine.Evaluate(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after improvement: released %d at confidence %.3f\n",
		resp.Released.Len(), resp.Released.At(0).Confidence)

	// Output:
	// released 0, withheld 1
	// improvement cost: 10
	// after improvement: released 1 at confidence 0.065
}

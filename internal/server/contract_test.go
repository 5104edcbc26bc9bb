package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pcqe/internal/core"
	"pcqe/internal/cost"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
)

// The withheld row of newStaffServer: its Dept cell is a sentinel no
// query text contains, its confidence a number nothing else produces,
// and its salary what the bisection probe recovers.
const (
	withheldDept   = "Qv7-withheld-dept"
	withheldConf   = 0.0123457
	withheldSalary = 73421
)

// newStaffServer serves a three-row Staff table to analyst ann at
// β = 0.5: alice and carol clear it, bob (the withheld row) does not.
func newStaffServer(t *testing.T) *httptest.Server {
	t.Helper()
	c := relation.NewCatalog()
	staff, err := c.CreateTable("Staff", relation.NewSchema(
		relation.Column{Name: "Name", Type: relation.TypeString},
		relation.Column{Name: "Dept", Type: relation.TypeString},
		relation.Column{Name: "Salary", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	staff.MustInsert(0.9, cost.Linear{Rate: 100}, relation.String_("alice"), relation.String_("Sales"), relation.Float(50000))
	staff.MustInsert(0.8, cost.Linear{Rate: 100}, relation.String_("carol"), relation.String_("Sales"), relation.Float(61000))
	staff.MustInsert(withheldConf, cost.Linear{Rate: 10}, relation.String_("bob"), relation.String_(withheldDept), relation.Float(withheldSalary))
	store, err := policy.NewStoreFromSpecs([]string{"analyst:audit:0.5"}, []string{"ann=analyst"})
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(c, store, nil)
	engine.SetAudit(&core.AuditLog{})
	ts := httptest.NewServer(New(engine, Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// rawDo is do keeping the body as the client received it.
func rawDo(t *testing.T, ts *httptest.Server, method, path, token string, body any) (int, string) {
	t.Helper()
	var raw json.RawMessage
	code := do(t, ts, method, path, token, body, &raw)
	return code, string(raw)
}

// TestWithheldRowContract pins DESIGN.md §12's contract for withheld
// rows on the wire. A session never sees a withheld row's cells on any
// surface, nor its confidence outside a proposal. The allowed channels
// are tested as allowed: withheld_count counts the withheld rows, a
// bisection on it recovers a withheld value in 20 queries, and a
// proposal shows the confidence it would raise.
func TestWithheldRowContract(t *testing.T) {
	ts := newStaffServer(t)
	token := handshake(t, ts, "ann", "audit")
	confText := strconv.FormatFloat(withheldConf, 'g', -1, 64)
	const scan = "SELECT Name, Dept, Salary FROM Staff"
	if strings.Contains(scan, withheldDept) {
		t.Fatal("the sentinel must appear in no query text")
	}

	query := func(q string, theta float64) (WireResponse, string) {
		t.Helper()
		code, body := rawDo(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: q, MinFraction: theta})
		if code != http.StatusOK {
			t.Fatalf("%q at θ=%v: status %d: %s", q, theta, code, body)
		}
		if strings.Contains(body, withheldDept) {
			t.Fatalf("%q at θ=%v: a withheld cell reached the wire: %s", q, theta, body)
		}
		var wr WireResponse
		if err := json.Unmarshal([]byte(body), &wr); err != nil {
			t.Fatal(err)
		}
		return wr, body
	}

	wr, body := query(scan, 0)
	if strings.Contains(body, confText) {
		t.Fatalf("θ=0: the withheld confidence %s reached the wire: %s", confText, body)
	}
	if len(wr.Released) != 2 || wr.WithheldCount != 1 {
		t.Fatalf("released %d, withheld_count %d; want 2 and 1", len(wr.Released), wr.WithheldCount)
	}

	// θ > 0: the proposal names bob's base tuple and the confidence it
	// raises from, which is the row's own; cells still stay off the wire.
	wr, _ = query(scan, 1)
	if wr.Proposal == nil || len(wr.Proposal.Increments) != 1 || wr.Proposal.Increments[0].From != withheldConf {
		t.Fatalf("proposal %+v: want one increment raising from %v", wr.Proposal, withheldConf)
	}

	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/explain"},
		{http.MethodGet, "/v1/audit?limit=100"},
	} {
		code, body := rawDo(t, ts, probe.method, probe.path, token, ExplainRequest{Query: scan})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", probe.path, code, body)
		}
		if strings.Contains(body, withheldDept) || strings.Contains(body, confText) {
			t.Fatalf("%s leaks the withheld row: %s", probe.path, body)
		}
	}

	// The bisection probe on withheld_count: Salary > x withholds bob iff
	// his salary exceeds x, and no row is ever released. lo < salary ≤ hi
	// throughout.
	lo, hi, queries := 0, 1<<20, 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		wr, _ := query(fmt.Sprintf("SELECT Name FROM Staff WHERE Name = 'bob' AND Salary > %d", mid), 0)
		queries++
		if len(wr.Released) != 0 {
			t.Fatalf("probe released %d rows", len(wr.Released))
		}
		if wr.WithheldCount == 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	if queries > 20 || hi-withheldSalary > 1 || withheldSalary-hi > 1 {
		t.Fatalf("bisection took %d queries to reach %d, salary %d", queries, hi, withheldSalary)
	}
}

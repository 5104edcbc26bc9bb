package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pcqe/internal/core"
	"pcqe/internal/cost"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/strategy"
)

// newVentureServer hosts the paper's running example (Tables 1–2,
// policies P1 secretary/analysis/0.05 and P2 manager/investment/0.06,
// users sue and mark) behind a Server with audit and metrics attached.
func newVentureServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	c := relation.NewCatalog()
	proposal, err := c.CreateTable("Proposal", relation.NewSchema(
		relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Proposal", Type: relation.TypeString},
		relation.Column{Name: "Funding", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateTable("CompanyInfo", relation.NewSchema(
		relation.Column{Name: "Company", Type: relation.TypeString},
		relation.Column{Name: "Income", Type: relation.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	proposal.MustInsert(0.5, cost.Linear{Rate: 500},
		relation.String_("AcmeSoft"), relation.String_("cloud"), relation.Float(2e6))
	proposal.MustInsert(0.3, cost.Linear{Rate: 1000},
		relation.String_("ZStart"), relation.String_("sensor"), relation.Float(8e5))
	proposal.MustInsert(0.4, cost.Linear{Rate: 100},
		relation.String_("ZStart"), relation.String_("mobile"), relation.Float(9e5))
	info.MustInsert(0.1, cost.Linear{Rate: 2000},
		relation.String_("ZStart"), relation.Float(1.2e5))
	info.MustInsert(0.9, nil, relation.String_("AcmeSoft"), relation.Float(5e6))

	rbac := policy.NewRBAC()
	rbac.AddRole("secretary")
	rbac.AddRole("manager")
	if err := rbac.AssignUser("sue", "secretary"); err != nil {
		t.Fatal(err)
	}
	if err := rbac.AssignUser("mark", "manager"); err != nil {
		t.Fatal(err)
	}
	purposes := policy.NewPurposeTree()
	if err := purposes.Add("analysis", ""); err != nil {
		t.Fatal(err)
	}
	if err := purposes.Add("investment", ""); err != nil {
		t.Fatal(err)
	}
	store := policy.NewStore(rbac, purposes)
	if err := store.Add(policy.ConfidencePolicy{Role: "secretary", Purpose: "analysis", Beta: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(policy.ConfidencePolicy{Role: "manager", Purpose: "investment", Beta: 0.06}); err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(c, store, nil)
	engine.SetAudit(&core.AuditLog{})
	engine.SetMetrics(obs.New())
	return New(engine, cfg)
}

const ventureQuery = `
	SELECT DISTINCT CompanyInfo.Company, Income
	FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company
	WHERE Funding < 1000000`

// do runs one JSON request against the test server and decodes the
// response into out (skipped when out is nil).
func do(t *testing.T, ts *httptest.Server, method, path, token string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding %d response: %v", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// handshake opens a session and returns its token.
func handshake(t *testing.T, ts *httptest.Server, user, purpose string) string {
	t.Helper()
	var hr HandshakeResponse
	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: user, Purpose: purpose}, &hr); code != http.StatusCreated {
		t.Fatalf("handshake %s/%s: status %d", user, purpose, code)
	}
	return hr.Token
}

func TestHandshakeResolvesPolicy(t *testing.T) {
	s := newVentureServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var hr HandshakeResponse
	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: "sue", Purpose: "analysis"}, &hr); code != http.StatusCreated {
		t.Fatalf("status %d", code)
	}
	if !hr.PolicyApplied || hr.Beta != 0.05 || hr.Token == "" {
		t.Fatalf("handshake = %+v", hr)
	}

	// A pair no policy covers is rejected at handshake: the β filter is
	// pinned per connection, not discovered per query.
	var we wireError
	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: "nobody", Purpose: "analysis"}, &we); code != http.StatusUnauthorized {
		t.Fatalf("unpolicied pair: status %d, want 401", code)
	}
	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: "sue", Purpose: "sales"}, &we); code != http.StatusUnauthorized {
		t.Fatalf("uncovered purpose: status %d, want 401", code)
	}
	// Queries without a token, or with a stale one, never reach the engine.
	if code := do(t, ts, http.MethodPost, "/v1/query", "", QueryRequest{Query: ventureQuery}, &we); code != http.StatusUnauthorized {
		t.Fatalf("tokenless query: status %d, want 401", code)
	}
	if code := do(t, ts, http.MethodDelete, "/v1/session", hr.Token, nil, nil); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if code := do(t, ts, http.MethodPost, "/v1/query", hr.Token, QueryRequest{Query: ventureQuery}, &we); code != http.StatusUnauthorized {
		t.Fatalf("closed-session query: status %d, want 401", code)
	}
}

func TestSessionCap(t *testing.T) {
	s := newVentureServer(t, Config{MaxSessions: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	handshake(t, ts, "sue", "analysis")
	handshake(t, ts, "mark", "investment")
	var we wireError
	if code := do(t, ts, http.MethodPost, "/v1/session", "", HandshakeRequest{User: "sue", Purpose: "analysis"}, &we); code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap handshake: status %d, want 503", code)
	}
}

// TestConcurrentSessionsBetaIsolation is the acceptance gate: M ≥ 8
// concurrent sessions, half authenticated as sue/analysis (β=0.05, the
// 0.058-confidence row is released) and half as mark/investment
// (β=0.06, it is withheld), each running N queries against ONE shared
// engine. Every response must carry its own session's threshold and
// release decision — a single crossed wire fails the test — and the
// audit journal must come out gap-free.
func TestConcurrentSessionsBetaIsolation(t *testing.T) {
	s := newVentureServer(t, Config{WorkerPool: 16, MaxInFlight: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const pairs = 5 // 10 sessions total
	const queriesPer = 6
	var wg sync.WaitGroup
	errCh := make(chan error, 2*pairs)
	runSession := func(user, purpose string, beta float64, released, withheld int) {
		defer wg.Done()
		token := handshake(t, ts, user, purpose)
		for i := 0; i < queriesPer; i++ {
			var wr WireResponse
			if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: ventureQuery}, &wr); code != http.StatusOK {
				errCh <- fmt.Errorf("%s query: status %d", user, code)
				return
			}
			if math.Abs(wr.Threshold-beta) > 1e-12 {
				errCh <- fmt.Errorf("%s saw threshold %v, want %v: β leaked across sessions", user, wr.Threshold, beta)
				return
			}
			if len(wr.Released) != released || wr.WithheldCount != withheld {
				errCh <- fmt.Errorf("%s got released=%d withheld=%d, want %d/%d", user, len(wr.Released), wr.WithheldCount, released, withheld)
				return
			}
			for _, row := range wr.Released {
				if !(row.Confidence > wr.Threshold) {
					errCh <- fmt.Errorf("%s released a row at confidence %v under threshold %v", user, row.Confidence, wr.Threshold)
					return
				}
			}
		}
	}
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go runSession("sue", "analysis", 0.05, 1, 0)
		go runSession("mark", "investment", 0.06, 0, 1)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := s.SessionCount(); got != 2*pairs {
		t.Errorf("open sessions = %d, want %d", got, 2*pairs)
	}

	// The shared audit journal survived the storm gap-free: Seq is
	// exactly 1..n with no duplicates or holes.
	events := s.Engine().Audit().Events()
	if len(events) < 2*pairs*queriesPer {
		t.Fatalf("journal has %d events, want at least %d", len(events), 2*pairs*queriesPer)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("journal gap at index %d: seq %d", i, ev.Seq)
		}
	}
}

// TestSnapshotConsistencyDuringApply races queries against an applied
// improvement plan. Every response must be attributable to exactly one
// committed version: before the apply commits the ZStart row is
// withheld at 0.058, after it the row is released at ~0.065 — and the
// response's Version says which side of the commit it read. A response
// mixing the two states (or released rows at a pre-apply version)
// means a query read across versions.
func TestSnapshotConsistencyDuringApply(t *testing.T) {
	s := newVentureServer(t, Config{WorkerPool: 16, MaxInFlight: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	markToken := handshake(t, ts, "mark", "investment")
	var first WireResponse
	if code := do(t, ts, http.MethodPost, "/v1/query", markToken, QueryRequest{Query: ventureQuery, MinFraction: 1}, &first); code != http.StatusOK {
		t.Fatalf("seed query: status %d", code)
	}
	if first.Proposal == nil {
		t.Fatal("expected an improvement proposal")
	}

	const readers = 8
	const queriesPer = 5
	var wg sync.WaitGroup
	type seen struct {
		version  int64
		released int
		conf     float64
	}
	results := make(chan seen, readers*queriesPer)
	errCh := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			token := handshake(t, ts, "mark", "investment")
			for i := 0; i < queriesPer; i++ {
				var wr WireResponse
				if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: ventureQuery}, &wr); code != http.StatusOK {
					errCh <- fmt.Errorf("reader query: status %d", code)
					return
				}
				conf := 0.0
				if len(wr.Released) == 1 {
					conf = wr.Released[0].Confidence
				}
				results <- seen{version: wr.Version, released: len(wr.Released), conf: conf}
			}
		}()
	}
	var applied ApplyResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code := do(t, ts, http.MethodPost, "/v1/apply", markToken, ApplyRequest{ProposalID: first.Proposal.ID}, &applied); code != http.StatusOK {
			errCh <- fmt.Errorf("apply: status %d", code)
		}
	}()
	wg.Wait()
	close(results)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if !applied.Applied || applied.Version <= first.Version {
		t.Fatalf("apply = %+v (seed version %d)", applied, first.Version)
	}
	for r := range results {
		preApply := r.version < applied.Version
		switch {
		case preApply && r.released != 0:
			t.Fatalf("version %d (pre-apply) released %d rows", r.version, r.released)
		case !preApply && r.released != 1:
			t.Fatalf("version %d (post-apply) released %d rows, want 1", r.version, r.released)
		case !preApply && math.Abs(r.conf-0.065) > 1e-9:
			t.Fatalf("version %d released at confidence %v, want 0.065", r.version, r.conf)
		}
	}
	// The spent handle is single-use.
	var we wireError
	if code := do(t, ts, http.MethodPost, "/v1/apply", markToken, ApplyRequest{ProposalID: first.Proposal.ID}, &we); code != http.StatusNotFound {
		t.Fatalf("re-apply: status %d, want 404", code)
	}
}

// TestProposalStashIsBounded pins the per-session stash cap: a session
// that keeps proposing without applying holds only its newest
// maxStashed handles; an evicted handle is refused exactly like an
// unknown one, the newest still applies.
func TestProposalStashIsBounded(t *testing.T) {
	s := newVentureServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "mark", "investment")
	var ids []string
	for i := 0; i < maxStashed+3; i++ {
		var wr WireResponse
		if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: ventureQuery, MinFraction: 1}, &wr); code != http.StatusOK || wr.Proposal == nil {
			t.Fatalf("query %d: status %d, proposal %v", i, code, wr.Proposal)
		}
		ids = append(ids, wr.Proposal.ID)
	}
	sess := s.lookup(token)
	sess.mu.Lock()
	held := len(sess.proposals)
	sess.mu.Unlock()
	if held != maxStashed {
		t.Fatalf("session holds %d proposals, want %d", held, maxStashed)
	}
	for _, id := range ids[:3] {
		var we wireError
		if code := do(t, ts, http.MethodPost, "/v1/apply", token, ApplyRequest{ProposalID: id}, &we); code != http.StatusNotFound {
			t.Fatalf("apply evicted %s: status %d, want 404", id, code)
		}
	}
	var ar ApplyResponse
	if code := do(t, ts, http.MethodPost, "/v1/apply", token, ApplyRequest{ProposalID: ids[len(ids)-1]}, &ar); code != http.StatusOK || !ar.Applied {
		t.Fatalf("apply newest: status %d, %+v", code, ar)
	}
}

// TestApplyReportsWhatItWrote spends two handles of the same plan: the
// first commits and reports its cost and commit version, the second
// finds every target met and answers 200 with zero increments, cost 0
// and no version, so the journal bills the improvement once.
func TestApplyReportsWhatItWrote(t *testing.T) {
	s := newVentureServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "mark", "investment")
	var props []*WireProposal
	for range 2 {
		var wr WireResponse
		if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: ventureQuery, MinFraction: 1}, &wr); code != http.StatusOK || wr.Proposal == nil {
			t.Fatalf("query: status %d, proposal %v", code, wr.Proposal)
		}
		props = append(props, wr.Proposal)
	}
	before := s.engine.Catalog().Version()
	var first, second ApplyResponse
	if code := do(t, ts, http.MethodPost, "/v1/apply", token, ApplyRequest{ProposalID: props[0].ID}, &first); code != http.StatusOK {
		t.Fatalf("first apply: status %d", code)
	}
	if code := do(t, ts, http.MethodPost, "/v1/apply", token, ApplyRequest{ProposalID: props[1].ID}, &second); code != http.StatusOK {
		t.Fatalf("second apply: status %d", code)
	}
	if !first.Applied || first.Cost != props[0].Cost || first.Increments != len(props[0].Increments) || first.Version != before+1 {
		t.Fatalf("first apply = %+v, want cost %g, %d increments, version %d", first, props[0].Cost, len(props[0].Increments), before+1)
	}
	if !second.Applied || second.Cost != 0 || second.Increments != 0 || second.Version != 0 {
		t.Fatalf("second apply = %+v, want a no-op", second)
	}
	if got := s.engine.Audit().TotalImprovementSpend(); got != first.Cost {
		t.Fatalf("spend = %g, want %g", got, first.Cost)
	}
}

func TestBudgetClamping(t *testing.T) {
	// The server ceiling is one δ-grid step; even a session asking for
	// "unlimited" (no budget) or an explicit 1000 gets clamped, so the
	// full-θ solve degrades to the anytime incumbent.
	s := newVentureServer(t, Config{MaxBudget: strategy.Budget{MaxSteps: 1}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "mark", "investment")

	for _, body := range []QueryRequest{
		{Query: ventureQuery, MinFraction: 1},
		{Query: ventureQuery, MinFraction: 1, Budget: &WireBudget{MaxSteps: 1000}},
	} {
		var wr WireResponse
		if code := do(t, ts, http.MethodPost, "/v1/query", token, body, &wr); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if wr.Degraded == "" {
			t.Fatalf("budget ceiling not enforced: response not degraded (%+v)", wr)
		}
	}
	// A negative override field is a 400 naming the field, whichever it is;
	// so is a timeout_ms whose nanoseconds overflow a time.Duration (the
	// first wrapped to a 448 µs budget, the second to a negative one).
	for field, over := range map[string]WireBudget{
		"Timeout": {TimeoutMillis: -1}, "Workers": {Workers: -1},
		"MaxNodes": {MaxNodes: -1}, "MaxPivots": {MaxPivots: -1}, "MaxSteps": {MaxSteps: -1},
		"timeout_ms 18446744073710": {TimeoutMillis: 18446744073710},
		"timeout_ms 9223372036855":  {TimeoutMillis: 9223372036855},
	} {
		over := over
		var we wireError
		if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: ventureQuery, Budget: &over}, &we); code != http.StatusBadRequest || !strings.Contains(we.Error, field) {
			t.Errorf("override %s: status %d, error %q; want 400 naming the field", field, code, we.Error)
		}
	}
}

func TestAuditTailIsSessionScoped(t *testing.T) {
	s := newVentureServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sueToken := handshake(t, ts, "sue", "analysis")
	markToken := handshake(t, ts, "mark", "investment")
	for i := 0; i < 2; i++ {
		if code := do(t, ts, http.MethodPost, "/v1/query", sueToken, QueryRequest{Query: ventureQuery}, &WireResponse{}); code != http.StatusOK {
			t.Fatalf("sue query: status %d", code)
		}
	}
	if code := do(t, ts, http.MethodPost, "/v1/query", markToken, QueryRequest{Query: ventureQuery}, &WireResponse{}); code != http.StatusOK {
		t.Fatalf("mark query: status %d", code)
	}

	var ar AuditResponse
	if code := do(t, ts, http.MethodGet, "/v1/audit?limit=10", sueToken, nil, &ar); code != http.StatusOK {
		t.Fatalf("audit: status %d", code)
	}
	if ar.Total != 2 || len(ar.Events) != 2 {
		t.Fatalf("sue sees %d events (total %d), want 2: the tail must be scoped to the session user", len(ar.Events), ar.Total)
	}
	for _, ev := range ar.Events {
		if ev.Kind != core.AuditEvaluate || ev.Purpose != "analysis" {
			t.Fatalf("foreign event in sue's tail: %+v", ev)
		}
	}
}

// wideQuery collapses every widened company (see widenVenture) into one
// result row. The self-join pairs each company with every other of its
// income, so a CompanyInfo tuple recurs once per partner: factoring the
// DISTINCT's disjunction takes out one conjunct per operand and still
// leaves every tuple shared.
const wideQuery = `
	SELECT DISTINCT a.Income
	FROM CompanyInfo a JOIN CompanyInfo b ON a.Income = b.Income
	WHERE a.Income = 1`

// widenVenture adds n companies with income 1, so wideQuery's single
// result shares n variables.
func widenVenture(t *testing.T, cat *relation.Catalog, n int) {
	t.Helper()
	info, err := cat.Table("CompanyInfo")
	if err != nil {
		t.Fatal(err)
	}
	x := cat.Begin()
	for i := 0; i < n; i++ {
		name := relation.String_(fmt.Sprintf("Wide%d", i))
		if _, err := x.Insert(info, []relation.Value{name, relation.Float(1)}, 0.5, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTooManySharedVariablesIs422 pins the refusal of a result formula
// beyond exact evaluation (more than lineage.DefaultSharedLimit shared
// variables): a 422 with the usual error body on a connection that
// stays usable, with the session's only in-flight slot and the server's
// only worker slot released — not a handler panic the client sees as
// EOF.
func TestTooManySharedVariablesIs422(t *testing.T) {
	s := newVentureServer(t, Config{WorkerPool: 1, MaxInFlight: 1})
	widenVenture(t, s.engine.Catalog(), lineage.DefaultSharedLimit+1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := handshake(t, ts, "sue", "analysis")

	// The refusal comes from the lineage phase for the plain query and
	// from the eval phase when the statement reads _confidence over the
	// same rows (the AttachConfidence operator evaluates the formula).
	for i, q := range []string{wideQuery, wideQuery, "SELECT Income, _confidence FROM (" + wideQuery + ") AS w"} {
		var we wireError
		if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: q}, &we); code != http.StatusUnprocessableEntity {
			t.Fatalf("query %d: status %d (%s), want 422", i, code, we.Error)
		}
		if !strings.Contains(we.Error, lineage.ErrTooManyShared.Error()) {
			t.Fatalf("query %d: error body %q does not name the cause", i, we.Error)
		}
	}
	var ok WireResponse
	if code := do(t, ts, http.MethodPost, "/v1/query", token, QueryRequest{Query: ventureQuery}, &ok); code != http.StatusOK {
		t.Fatalf("follow-up query on the same session: status %d, want 200", code)
	}
}

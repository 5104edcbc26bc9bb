package core

import (
	"strings"
	"testing"

	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
)

// TestEngineCacheObservability checks the optimizer caches surface
// through the engine: plan-cache and confidence-cache deltas on the
// request span tree, lineage-class row totals, and the mirrored
// metrics counters.
func TestEngineCacheObservability(t *testing.T) {
	e := newVentureEngine(t, nil)
	m := obs.New()
	e.SetMetrics(m)
	req := Request{User: "sue", Query: pairQuery, Purpose: "analysis"}

	first, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}

	eval1 := first.Timings.Find("eval")
	if eval1.Attr("plan_cache_misses") != 1 || eval1.Attr("plan_cache_hits") != 0 {
		t.Errorf("first eval: hits=%d misses=%d, want 0/1",
			eval1.Attr("plan_cache_hits"), eval1.Attr("plan_cache_misses"))
	}
	eval2 := second.Timings.Find("eval")
	if eval2.Attr("plan_cache_hits") != 1 || eval2.Attr("plan_cache_misses") != 0 {
		t.Errorf("second eval: hits=%d misses=%d, want 1/0",
			eval2.Attr("plan_cache_hits"), eval2.Attr("plan_cache_misses"))
	}
	// The plan behind those spans is the join planner's: the Funding
	// filter and the column pruning run inside a's Proposal leaf, below
	// the group-join that runs the DISTINCT over the self-join. DISTINCT
	// means the lineage hint is may-share.
	stmt, err := sql.Parse(pairQuery)
	if err != nil {
		t.Fatal(err)
	}
	op, info, err := sql.PlanDetailedAt(e.Catalog(), stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := relation.ExplainAnnotated(op, info.Notes)
	if !strings.Contains(plan, "GroupJoin DISTINCT [a.Company] (b.Company = a.Company)") ||
		!strings.Contains(plan, "└─ Scan Proposal filter (a.Funding < 1000000) cols [Company, Funding]") {
		t.Errorf("self-join not planned by cost:\n%s", plan)
	}
	if eval2.Attr("lineage_hint_read_once") != 0 {
		t.Errorf("DISTINCT query must carry the may-share hint")
	}

	lin1 := first.Timings.Find("lineage")
	if lin1 == nil {
		t.Fatalf("no lineage span:\n%s", first.Timings.Tree())
	}
	rows := lin1.Attr("rows")
	if rows == 0 {
		t.Fatal("lineage span must count rows")
	}
	// Every lineage class total must reconcile with the row count.
	classed := lin1.Attr("readonce_rows") + lin1.Attr("bounded_rows") + lin1.Attr("hard_rows")
	if classed != rows {
		t.Errorf("class totals %d != rows %d", classed, rows)
	}
	// DISTINCT merges ZStart's four pairs of its two cheap proposals into
	// one result. Factoring groups the pairs by their first proposal,
	// ((t2 & (t2 | t3)) | (t3 & (t2 | t3))), and both variables stay
	// shared: the row routes through the bounded-pivot Shannon path.
	if lin1.Attr("bounded_rows") != rows {
		t.Errorf("bounded_rows = %d, want %d", lin1.Attr("bounded_rows"), rows)
	}
	if lin1.Attr("bounded_pivots") == 0 {
		t.Error("shared formula must record its Shannon pivots")
	}
	if lin1.Attr("conf_cache_misses") == 0 {
		t.Error("first request must miss the confidence cache")
	}
	lin2 := second.Timings.Find("lineage")
	if lin2.Attr("conf_cache_hits") != rows || lin2.Attr("conf_cache_misses") != 0 {
		t.Errorf("second request: conf hits=%d misses=%d, want %d/0",
			lin2.Attr("conf_cache_hits"), lin2.Attr("conf_cache_misses"), rows)
	}

	snap := m.Snapshot()
	if h, ms := snap.Counters["sql.plancache.hits"], snap.Counters["sql.plancache.misses"]; h != 1 || ms != 1 {
		t.Errorf("sql.plancache hits/misses = %d/%d, want 1/1", h, ms)
	}
	if _, ok := snap.Counters["engine.confcache.hits"]; !ok {
		t.Errorf("metrics snapshot missing engine.confcache.hits: %v", snap.Counters)
	}
	cc := e.ConfCacheStats()
	if cc.Hits != rows || cc.Misses != rows {
		t.Errorf("ConfCacheStats = %+v, want %d hits and misses", cc, rows)
	}
}

// TestEngineConfidenceCacheFollowsImprovement: applying an improvement
// plan raises base confidences; the next evaluation must see the new
// result confidence, not a cached pre-improvement value.
func TestEngineConfidenceCacheFollowsImprovement(t *testing.T) {
	e := newVentureEngine(t, nil)
	req := Request{User: "mark", Query: ventureQuery, Purpose: "investment", MinFraction: 1.0}
	resp, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proposal == nil || resp.Released.Len() != 0 {
		t.Fatalf("expected a blocked result with a proposal, got %+v", resp)
	}
	withheld := resp.Withheld[0].Confidence
	if err := e.Apply(resp.Proposal); err != nil {
		t.Fatal(err)
	}
	after, err := e.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Released.Len() != 1 {
		t.Fatalf("post-apply: released=%d, want 1", after.Released.Len())
	}
	if after.Released.At(0).Confidence <= withheld {
		t.Errorf("confidence %v not raised above pre-apply %v (stale cache?)",
			after.Released.At(0).Confidence, withheld)
	}
}

// pairQuery pairs each company's cheaper proposals with each other: the
// self-join repeats a proposal in every pair it joins, so the DISTINCT
// result keeps shared variables after its disjunction is factored.
const pairQuery = `
	SELECT DISTINCT a.Company
	FROM Proposal a JOIN Proposal b ON a.Company = b.Company
	WHERE a.Funding < 1000000`

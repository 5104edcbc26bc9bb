package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
)

// FigPlanner measures the cost-based planner against a statement-order
// baseline on a star-schema join whose statement order is deliberately
// bad (the selective dimension filter comes last), and
// sweeps the plan cache with a repeated query-template workload. It
// also writes the machine-readable artifact BENCH_planner.json to the
// current directory.
//
// Schema: fact(id, d1, d2, amount) with N rows; dim1/dim2(k, attr)
// with N/10 rows each, attr uniform in [0,100). Query:
//
//	SELECT fact.amount, dim1.attr, dim2.attr
//	FROM fact JOIN dim1 ON fact.d1 = dim1.k
//	          JOIN dim2 ON fact.d2 = dim2.k
//	WHERE dim2.attr = <v>
//
// Statement order (statementOrderPlan, an operator tree built by hand)
// joins the full fact table with dim1 first and filters last; the
// cost-based plan pushes the dim2 filter down and joins the ~N/1000-row
// filtered dimension against fact before touching dim1.
func FigPlanner(opt Options) ([]*Table, error) {
	sizes := []int{10_000, 50_000, 100_000}
	if opt.Full {
		sizes = append(sizes, 1_000_000)
	}

	order := &Table{
		Title:   "Planner: cost-based join order vs statement order (star join, selective filter last)",
		XLabel:  "fact rows",
		Columns: []string{"rule_ms", "cost_ms", "speedup", "rows"},
		Notes:   "cost-based should win and the gap widen with N: the statement-order plan materializes two full-width N-row intermediates before filtering",
	}

	type sizeResult struct {
		N       int     `json:"n"`
		RuleMS  float64 `json:"rule_ms"`
		CostMS  float64 `json:"cost_ms"`
		Speedup float64 `json:"speedup"`
		Rows    int     `json:"rows"`
	}
	artifact := struct {
		Experiment string       `json:"experiment"`
		Seed       int64        `json:"seed"`
		Full       bool         `json:"full"`
		Sizes      []sizeResult `json:"sizes"`
		PlanCache  struct {
			Queries        int     `json:"queries"`
			Templates      int     `json:"templates"`
			Hits           int64   `json:"hits"`
			Misses         int64   `json:"misses"`
			HitRate        float64 `json:"hit_rate"`
			CachedUSPerQ   float64 `json:"cached_us_per_query"`
			UncachedUSPerQ float64 `json:"uncached_us_per_query"`
			PlanOnlyUSPerQ float64 `json:"plan_only_us_per_query"`
		} `json:"plan_cache"`
	}{Experiment: "planner", Seed: opt.Seed, Full: opt.Full}

	const attr = 7
	query := "SELECT fact.amount, dim1.attr, dim2.attr " +
		"FROM fact JOIN dim1 ON fact.d1 = dim1.k JOIN dim2 ON fact.d2 = dim2.k " +
		fmt.Sprintf("WHERE dim2.attr = %d", attr)

	for _, n := range sizes {
		cat, err := starCatalog(n, opt.Seed)
		if err != nil {
			return nil, err
		}
		stmt, err := sql.Parse(query)
		if err != nil {
			return nil, err
		}
		ruleDur, ruleRows, err := timePlanAndRun(cat, func(int64) (relation.Operator, error) {
			return statementOrderPlan(cat, attr)
		})
		if err != nil {
			return nil, err
		}
		costDur, costRows, err := timePlanAndRun(cat, func(asOf int64) (relation.Operator, error) {
			op, _, err := sql.PlanDetailedAt(cat, stmt, asOf)
			return op, err
		})
		if err != nil {
			return nil, err
		}
		if ruleRows != costRows {
			return nil, fmt.Errorf("bench: planner differential mismatch at N=%d: statement order %d rows, cost-based %d rows", n, ruleRows, costRows)
		}
		speedup := ruleDur.Seconds() / costDur.Seconds()
		order.Rows = append(order.Rows, RowData{X: sizeLabel(n), Values: map[string]float64{
			"rule_ms": float64(ruleDur.Microseconds()) / 1000,
			"cost_ms": float64(costDur.Microseconds()) / 1000,
			"speedup": speedup,
			"rows":    float64(costRows),
		}})
		artifact.Sizes = append(artifact.Sizes, sizeResult{
			N: n, RuleMS: float64(ruleDur.Microseconds()) / 1000,
			CostMS: float64(costDur.Microseconds()) / 1000, Speedup: speedup, Rows: costRows,
		})
	}

	// Plan-cache sweep: a bounded set of query templates issued many
	// times in round-robin order. Every template misses once and hits
	// thereafter; with 20 templates × 25 repetitions the steady-state
	// hit rate is 96%.
	const templates = 20
	const reps = 25
	cacheN := 500
	cat, err := starCatalog(cacheN, opt.Seed)
	if err != nil {
		return nil, err
	}
	queries := make([]string, templates)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"SELECT fact.amount, dim1.attr, dim2.attr FROM fact JOIN dim1 ON fact.d1 = dim1.k JOIN dim2 ON fact.d2 = dim2.k WHERE dim2.attr = %d", i)
	}
	pc := sql.NewPlanCache(64)
	counts := obs.New()
	pc.SetMetrics(counts)
	// One snapshot pins the whole sweep (nothing mutates the catalog
	// here), so every repetition reads the version its plan was cached at.
	snap := cat.Snapshot()
	defer snap.Release()
	cachedStart := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			if _, err := pc.QuerySnap(snap, q); err != nil {
				return nil, err
			}
		}
	}
	cachedDur := time.Since(cachedStart)
	uncachedStart := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			if _, _, err := sql.QuerySnap(snap, q); err != nil {
				return nil, err
			}
		}
	}
	uncachedDur := time.Since(uncachedStart)

	// Planning-only cost: what every cache hit avoids (parse is paid on
	// both paths; execution dominates at this scale, so the end-to-end
	// cached/uncached columns mostly bound the cache's overhead).
	planStart := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			stmt, err := sql.Parse(q)
			if err != nil {
				return nil, err
			}
			if _, _, err := sql.PlanDetailedAt(cat, stmt, snap.Version()); err != nil {
				return nil, err
			}
		}
	}
	planDur := time.Since(planStart)

	c := counts.Snapshot().Counters
	hits, misses := c["sql.plancache.hits"], c["sql.plancache.misses"]
	total := templates * reps
	hitRate := float64(hits) / float64(total)
	artifact.PlanCache.Queries = total
	artifact.PlanCache.Templates = templates
	artifact.PlanCache.Hits = hits
	artifact.PlanCache.Misses = misses
	artifact.PlanCache.HitRate = hitRate
	artifact.PlanCache.CachedUSPerQ = float64(cachedDur.Microseconds()) / float64(total)
	artifact.PlanCache.UncachedUSPerQ = float64(uncachedDur.Microseconds()) / float64(total)
	artifact.PlanCache.PlanOnlyUSPerQ = float64(planDur.Microseconds()) / float64(total)

	cache := &Table{
		Title:   "Plan cache: repeated query templates (20 templates x 25 reps, N=500)",
		XLabel:  "series",
		Columns: []string{"queries", "hits", "misses", "hit_rate", "us_per_query"},
		Notes:   "hit rate should reach (reps-1)/reps = 96%; the plan-only row is the per-query planning cost a cache hit avoids",
	}
	cache.Rows = append(cache.Rows,
		RowData{X: "cached", Values: map[string]float64{
			"queries": float64(total), "hits": float64(hits), "misses": float64(misses),
			"hit_rate": hitRate, "us_per_query": artifact.PlanCache.CachedUSPerQ,
		}},
		RowData{X: "uncached", Values: map[string]float64{
			"queries": float64(total), "us_per_query": artifact.PlanCache.UncachedUSPerQ,
		}},
		RowData{X: "plan-only", Values: map[string]float64{
			"queries": float64(total), "us_per_query": artifact.PlanCache.PlanOnlyUSPerQ,
		}},
	)

	blob, err := json.MarshalIndent(&artifact, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile("BENCH_planner.json", append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	return []*Table{order, cache}, nil
}

// statementOrderPlan is the figure's baseline plan of its star query:
// the joins as the statement writes them (fact ⋈ dim1 on d1 = k, then
// ⋈ dim2 on d2 = k) as hash joins, the dim2.attr = attr filter above
// both, then the select list.
func statementOrderPlan(cat *relation.Catalog, attr int64) (relation.Operator, error) {
	var scans [3]relation.Operator
	for i, name := range []string{"fact", "dim1", "dim2"} {
		tab, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		scans[i] = tab.Scan()
	}
	// fact(id, d1, d2, amount) ⋈ dim1(k, attr) ⋈ dim2(k, attr): amount,
	// dim1.attr and dim2.attr are the join's columns 3, 5 and 7.
	join := &relation.HashJoin{
		Left:     &relation.HashJoin{Left: scans[0], Right: scans[1], LeftKeys: []int{1}, RightKeys: []int{0}},
		Right:    scans[2],
		LeftKeys: []int{2}, RightKeys: []int{0},
	}
	col := func(i int) relation.Expr { return &relation.ColRef{Index: i, Col: join.Schema().Columns[i]} }
	pred := &relation.Binary{Op: relation.OpEq, Left: col(7), Right: relation.Const{Value: relation.Int(attr)}}
	return &relation.Project{Input: relation.Filter(join, pred), Exprs: []relation.Expr{col(3), col(5), col(7)}}, nil
}

// timePlanAndRun builds the plan, opens a fresh run and drains it at a
// pinned snapshot version, returning wall-clock and row count. Planning
// time is included: the comparison is end-to-end latency as a caller
// sees it. The snapshot keeps the timed run on one committed version —
// the measurement cannot mix commits even if the catalog is mutated
// while the benchmark runs.
func timePlanAndRun(cat *relation.Catalog, plan func(asOf int64) (relation.Operator, error)) (time.Duration, int, error) {
	snap := cat.Snapshot()
	defer snap.Release()
	start := time.Now()
	op, err := plan(snap.Version())
	if err != nil {
		return 0, 0, err
	}
	rows, err := relation.RunAt(op, snap.Version())
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), len(rows), nil
}

// starCatalog builds the benchmark star schema with n fact rows.
func starCatalog(n int, seed int64) (*relation.Catalog, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := relation.NewCatalog()
	dimRows := n / 10
	if dimRows < 1 {
		dimRows = 1
	}

	fact, err := cat.CreateTable("fact", relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt},
		relation.Column{Name: "d1", Type: relation.TypeInt},
		relation.Column{Name: "d2", Type: relation.TypeInt},
		relation.Column{Name: "amount", Type: relation.TypeFloat},
	))
	if err != nil {
		return nil, err
	}
	// DDL first (CreateTable takes the writer lock a Txn would hold),
	// then one transaction loads the whole star: a single commit instead
	// of a version bump per row.
	dims := make([]*relation.Table, 0, 2)
	for _, name := range []string{"dim1", "dim2"} {
		dim, err := cat.CreateTable(name, relation.NewSchema(
			relation.Column{Name: "k", Type: relation.TypeInt},
			relation.Column{Name: "attr", Type: relation.TypeInt},
		))
		if err != nil {
			return nil, err
		}
		dims = append(dims, dim)
	}
	x := cat.Begin()
	for i := 0; i < n; i++ {
		_, err := x.Insert(fact, []relation.Value{
			relation.Int(int64(i)),
			relation.Int(int64(rng.Intn(dimRows))),
			relation.Int(int64(rng.Intn(dimRows))),
			relation.Float(rng.Float64() * 1000),
		}, 1, nil)
		if err != nil {
			x.Rollback()
			return nil, err
		}
	}
	for _, dim := range dims {
		for i := 0; i < dimRows; i++ {
			_, err := x.Insert(dim, []relation.Value{
				relation.Int(int64(i)),
				relation.Int(int64(rng.Intn(100))),
			}, 1, nil)
			if err != nil {
				x.Rollback()
				return nil, err
			}
		}
	}
	if _, err := x.Commit(); err != nil {
		return nil, err
	}
	return cat, nil
}

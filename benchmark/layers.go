package main

import (
	"context"
	"fmt"
	"time"

	"pcqe/internal/lineage"
	"pcqe/internal/strategy"
	paper "pcqe/internal/workload"
)

// metric is one reported number. N is the sample count behind a
// percentile or ratio; Alias names the metric whose value this one
// repeats on a workload that issues no request of its own kind.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Alias string  `json:"alias,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int) {
	m[name] = metric{Value: value, Unit: unit, N: n}
}

// layerNames are the packages a request's time is attributed to.
var layerNames = []string{"server", "sql", "relation", "lineage", "policy", "core", "strategy"}

// spanMetrics turns the traced pass's spans into per-layer metrics.
func spanMetrics(m metrics, spans []span) {
	self := selfNanos(spans)
	by := map[string][]float64{} // durations in µs by "layer/name"
	var serveSelf, serveKB, evalMicros, evalRows float64
	evalByShape := map[string][]float64{}
	perRow := map[string][2]float64{} // name -> {µs, rows}
	var thresholdNS []float64

	// direct[r] holds request r's directly measured parse, plan and run
	// times, by which its eval phase is split between sql and relation.
	type split struct{ parse, plan, run float64 }
	direct := map[int]*split{}
	for _, s := range spans {
		if _, ok := direct[s.Request]; !ok {
			direct[s.Request] = &split{}
		}
		switch s.Layer + "/" + s.Name {
		case "sql/Parse":
			direct[s.Request].parse += s.micros()
		case "sql/PlanDetailedAt":
			direct[s.Request].plan += s.micros()
		case "relation/RunAt":
			direct[s.Request].run += s.micros()
		}
	}

	share := map[string]float64{}
	total := 0.0
	for i, s := range spans {
		key := s.Layer + "/" + s.Name
		by[key] = append(by[key], s.micros())
		selfMicros := float64(self[i]) / 1e3
		switch key {
		case "server/ServeHTTP":
			total += s.micros()
			share["server"] += selfMicros
			if s.Kind != kindExplain {
				by["server/self"] = append(by["server/self"], selfMicros)
				serveSelf += selfMicros
				serveKB += float64(s.Bytes) / 1024
			}
		case "core/cycle":
			total += s.micros()
			share["core"] += selfMicros
		case "core/EvaluateContext", "core/Apply":
			share["core"] += selfMicros
		case "sql+relation/eval":
			d := direct[s.Request]
			sqlPart := d.parse
			if !s.PlanHit {
				sqlPart += d.plan
			}
			rel := ratio(d.run, d.run+sqlPart)
			share["relation"] += s.micros() * rel
			share["sql"] += s.micros() * (1 - rel)
		case "lineage/lineage", "policy/policy-filter", "strategy/strategy":
			share[s.Layer] += s.micros()
		case "relation/RunAt":
			evalMicros += s.micros()
			evalRows += float64(s.Rows)
			evalByShape[s.Shape] = append(evalByShape[s.Shape], s.micros())
		case "relation/ConfidenceAtAcc.first", "relation/ConfidenceAtAcc.second", "lineage/Prob":
			acc := perRow[s.Name]
			perRow[s.Name] = [2]float64{acc[0] + s.micros(), acc[1] + float64(s.Rows)}
		case "policy/Threshold":
			thresholdNS = append(thresholdNS, s.micros()*1e3/float64(s.Rows))
		}
	}

	p50 := func(name, key string) {
		m.set(name, median(by[key]), "us", len(by[key]))
	}
	p50("server.self_us_p50", "server/self")
	m.set("server.encode_us_per_kb", ratio(serveSelf, serveKB), "us/KB", len(by["server/self"]))
	p50("sql.parse_us_p50", "sql/Parse")
	p50("sql.plan_us_p50", "sql/PlanDetailedAt")
	p50("relation.eval_us_p50", "relation/RunAt")
	m.set("relation.eval_us_per_krow", ratio(evalMicros, evalRows)*1000, "us/krow", int(evalRows))
	for _, shape := range coldShapes {
		m.set("relation.eval_us_p50."+shape, median(evalByShape[shape]), "us", len(evalByShape[shape]))
	}
	for name, key := range map[string]string{
		"relation.confidence_cold_us_per_row": "ConfidenceAtAcc.first",
		"relation.confidence_warm_us_per_row": "ConfidenceAtAcc.second",
		"lineage.prob_us_per_formula":         "Prob",
	} {
		m.set(name, ratio(perRow[key][0], perRow[key][1]), "us", int(perRow[key][1]))
	}
	m.set("policy.threshold_ns_p50", median(thresholdNS), "ns", len(thresholdNS))
	p50("core.evaluate_us_p50", "core/EvaluateContext")
	p50("core.phase.eval_us_p50", "sql+relation/eval")
	p50("core.phase.lineage_us_p50", "lineage/lineage")
	p50("core.phase.policy_filter_us_p50", "policy/policy-filter")
	p50("core.phase.strategy_us_p50", "strategy/strategy")
	p50("core.apply_us_p50", "core/Apply")
	for _, layer := range layerNames {
		m.set("trace.share."+layer, ratio(share[layer], total), "ratio", len(direct))
	}
}

// solveBench times the default divide-and-conquer solver on the
// paper's synthetic instances (workload.Generate) of 100 and 2 000
// results. The summed plan cost must repeat exactly for a seed.
func solveBench(m metrics, seed int64) error {
	solve := func(results int) (micros, planCost float64, err error) {
		p := paper.DefaultParams()
		p.Results, p.DataSize, p.Seed = results, results*p.TuplesPerResult, seed
		in, err := paper.Generate(p)
		if err != nil {
			return 0, 0, fmt.Errorf("benchmark: %w", err)
		}
		start := time.Now()
		plan, err := strategy.SolveContext(context.Background(), strategy.NewDivideAndConquer(), in, strategy.Budget{})
		if err != nil {
			return 0, 0, fmt.Errorf("benchmark: solving %d results: %w", results, err)
		}
		return float64(time.Since(start)) / 1e3, plan.Cost, nil
	}
	var small []float64
	planCost := 0.0
	for i := 0; i < 5; i++ {
		us, c, err := solve(100)
		if err != nil {
			return err
		}
		small = append(small, us)
		planCost = c
	}
	us, c, err := solve(2000)
	if err != nil {
		return err
	}
	m.set("strategy.solve_us_p50", median(small), "us", len(small))
	m.set("strategy.solve_us_per_result", us/2000, "us", 2000)
	m.set("strategy.plan_cost", planCost+c, "cost", 2)
	return nil
}

// commitBench times Begin → 100 × SetConfidence → Commit on a catalog
// the replay is done with, its engine's confidence cache still
// registered, so the cache's advance at commit is part of the cost.
func commitBench(m metrics, l *local) error {
	var micros []float64
	for round := 0; round < 20; round++ {
		start := time.Now()
		x := l.cat.Begin()
		for i := 0; i < 100; i++ {
			v := lineage.Var(1 + round*100 + i)
			cur, ok := x.ConfidenceOf(v)
			if !ok {
				x.Rollback()
				return fmt.Errorf("benchmark: commit bench: no base tuple %d", int(v))
			}
			if err := x.SetConfidence(v, min(1, cur+0.001)); err != nil {
				x.Rollback()
				return fmt.Errorf("benchmark: commit bench: %w", err)
			}
		}
		if _, err := x.Commit(); err != nil {
			return fmt.Errorf("benchmark: commit bench: %w", err)
		}
		micros = append(micros, float64(time.Since(start))/1e3)
	}
	m.set("relation.txn_commit_us_p50", median(micros), "us", len(micros))
	return nil
}

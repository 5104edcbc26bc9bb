package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/server"
	"pcqe/internal/sql"
)

// span is one timed call into a layer. Spans of one replayed request
// share Request; Parent indexes the span that caused this one (-1 for a
// root). Engine phase spans are copied from the tree the engine already
// builds for Response.Timings; every other span is recorded here, by the
// benchmark's own wrapper around a public call.
type span struct {
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	// Annotations for spans whose cost is reported per row, per response
	// byte, per request kind or per query shape; PlanHit marks an eval
	// phase served from the plan cache.
	Rows    int    `json:"rows,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Shape   string `json:"shape,omitempty"`
	PlanHit bool   `json:"plan_cache_hit,omitempty"`
}

func (s *span) micros() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// recorder keeps spans in memory; with on false every call is a no-op,
// which is how the untraced replay runs the same code.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func (r *recorder) begin(request int, layer, name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Request: request, Layer: layer, Name: name, Parent: parent, StartNS: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) *span {
	if id < 0 {
		return &span{} // recording off: annotations go nowhere
	}
	r.spans[id].EndNS = int64(time.Since(r.epoch))
	return &r.spans[id]
}

// phaseLayer maps the engine's phase spans to layers. The eval phase is
// parse + plan (sql) and the operator run (relation) in one span; the
// per-layer shares split it by the directly measured calls.
var phaseLayer = map[string]string{
	"eval": "sql+relation", "lineage": "lineage", "policy-filter": "policy", "strategy": "strategy",
}

// adopt copies an engine request tree (root and its phase children)
// under parent, with the engine's own start times and durations.
func (r *recorder) adopt(request, parent int, root *obs.Span) {
	if !r.on || root == nil {
		return
	}
	at := func(s *obs.Span, layer, name string, parent int) int {
		start := int64(s.Start().Sub(r.epoch))
		r.spans = append(r.spans, span{Request: request, Layer: layer, Name: name, Parent: parent,
			StartNS: start, EndNS: start + int64(s.Duration()), PlanHit: s.Attr("plan_cache_hits") > 0})
		return len(r.spans) - 1
	}
	id := at(root, "core", "EvaluateContext", parent)
	for _, c := range root.Children() {
		if layer, ok := phaseLayer[c.Name()]; ok {
			at(c, layer, c.Name(), id)
		}
	}
}

// selfNanos returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfNanos(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, upTo), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// lastSpans is the obs.Tracer the traced engine gets: it remembers the
// newest root span per name so the replay can copy the tree of the
// request it just served. The replay is single-threaded.
type lastSpans map[string]*obs.Span

func (l lastSpans) StartSpan(name string) *obs.Span {
	s := obs.NewSpan(name)
	l[name] = s
	return s
}

// replayer runs generated steps in-process, single-threaded, against
// one local engine.
type replayer struct {
	l       *local
	rec     *recorder
	roots   lastSpans // nil in the untraced pass
	handler http.Handler
	tokens  []string
	confs   *relation.ConfidenceCache
	// Counters over the traced requests.
	rows, sharedRows, pivots int64
	increments               []float64
}

func newReplayer(d *dataset, traced bool) (*replayer, error) {
	rp := &replayer{rec: &recorder{on: traced, epoch: time.Now()}}
	var tracer obs.Tracer
	if traced {
		rp.roots = lastSpans{}
		tracer = rp.roots
	}
	l, err := newLocal(d, tracer)
	if err != nil {
		return nil, err
	}
	rp.l, rp.handler = l, l.srv.Handler()
	rp.confs = relation.NewConfidenceCache(l.cat, 0)
	for _, u := range sessionUsers {
		sess, err := l.srv.Open(u.User, purpose)
		if err != nil {
			return nil, fmt.Errorf("benchmark: %w", err)
		}
		rp.tokens = append(rp.tokens, sess.Token())
	}
	return rp, nil
}

// serve passes one request through the server's handler in-process and
// records it as a server span with the engine's tree beneath it.
func (rp *replayer) serve(request int, path string, st step, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	req.Header.Set("Authorization", "Bearer "+rp.tokens[st.Sess])
	w := httptest.NewRecorder()
	delete(rp.roots, "request")
	id := rp.rec.begin(request, "server", "ServeHTTP", -1)
	rp.handler.ServeHTTP(w, req)
	sp := rp.rec.end(id)
	sp.Bytes, sp.Kind, sp.Shape = w.Body.Len(), st.Kind, st.Shape
	rp.rec.adopt(request, id, rp.roots["request"])
	if w.Code != http.StatusOK {
		return fmt.Errorf("benchmark: replaying %s %q: status %d: %s", path, st.SQL, w.Code, w.Body.Bytes())
	}
	return nil
}

// layers times the public calls a query passes through, one by one, at
// one pinned snapshot: parse, plan, run, confidence attachment (first
// and second pass), lineage probability, threshold lookup.
func (rp *replayer) layers(request int, st step) error {
	snap := rp.l.cat.Snapshot()
	defer snap.Release()
	rec := rp.rec

	id := rec.begin(request, "sql", "Parse", -1)
	stmt, err := sql.Parse(st.SQL)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	id = rec.begin(request, "sql", "PlanDetailedAt", -1)
	op, _, err := sql.PlanDetailedAt(rp.l.cat, stmt, snap.Version())
	rec.end(id)
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	id = rec.begin(request, "relation", "RunAt", -1)
	rows, err := relation.RunAt(op, snap.Version())
	sp := rec.end(id)
	sp.Rows, sp.Shape = len(rows), st.Shape
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}

	var acc relation.ConfCacheStats
	for _, name := range []string{"ConfidenceAtAcc.first", "ConfidenceAtAcc.second"} {
		id = rec.begin(request, "relation", name, -1)
		for _, t := range rows {
			rp.confs.ConfidenceAtAcc(t, snap, &acc)
		}
		rec.end(id).Rows = len(rows)
		if name == "ConfidenceAtAcc.first" && rec.on {
			rp.rows += int64(len(rows))
			rp.sharedRows += acc.Rows[relation.LineageBounded] + acc.Rows[relation.LineageHard]
			rp.pivots += acc.Pivots[relation.LineageBounded] + acc.Pivots[relation.LineageHard]
		}
	}
	id = rec.begin(request, "lineage", "Prob", -1)
	for _, t := range rows {
		lineage.Prob(t.Lineage, snap)
	}
	rec.end(id).Rows = len(rows)

	id = rec.begin(request, "policy", "Threshold", -1)
	for i := 0; i < thresholdCalls; i++ {
		rp.l.store.Threshold(sessionUsers[st.Sess].User, purpose)
	}
	rec.end(id).Rows = thresholdCalls
	return nil
}

// thresholdCalls is how many Store.Threshold calls one policy span
// covers: a single call is shorter than reading the clock.
const thresholdCalls = 64

// step replays one generated step. Queries, proposes and explains go
// through the server's handler. A cycle's propose and apply call the
// engine directly — Engine.Apply takes the proposal value, which the
// wire never carries — and its re-query goes through the handler.
func (rp *replayer) step(request int, st step) error {
	switch st.Kind {
	case kindExplain:
		return rp.serve(request, "/v1/explain", st, server.ExplainRequest{Query: st.SQL})
	case kindQuery, kindPropose:
		minFraction := 0.0
		if st.Kind == kindPropose {
			minFraction = theta
		}
		if err := rp.serve(request, "/v1/query", st, server.QueryRequest{Query: st.SQL, MinFraction: minFraction}); err != nil {
			return err
		}
		return rp.layers(request, st)
	case kindCycle:
		id := rp.rec.begin(request, "core", "cycle", -1)
		resp, err := rp.l.engine.EvaluateContext(context.Background(), core.Request{
			User: sessionUsers[st.Sess].User, Purpose: purpose, Query: st.SQL, MinFraction: theta})
		if err != nil {
			return fmt.Errorf("benchmark: replaying %q: %w", st.SQL, err)
		}
		rp.rec.adopt(request, id, resp.Timings)
		if resp.Proposal != nil {
			aid := rp.rec.begin(request, "core", "Apply", id)
			err := rp.l.engine.Apply(resp.Proposal)
			rp.rec.end(aid)
			if err != nil {
				return fmt.Errorf("benchmark: replaying apply for %q: %w", st.SQL, err)
			}
			if rp.rec.on {
				rp.increments = append(rp.increments, float64(len(resp.Proposal.Increments())))
			}
		}
		rp.rec.end(id)
		if err := rp.layers(request, st); err != nil {
			return err
		}
		st.Kind = kindRequery
		return rp.serve(request, "/v1/query", st, server.QueryRequest{Query: st.SQL})
	}
	return fmt.Errorf("benchmark: cannot replay step kind %q", st.Kind)
}

// replayBoth runs the same generated steps on a traced and an untraced
// replayer — first warm steps with recording off on both, then n steps
// request by request, alternating which side goes first so neither
// always runs on the caches the other just warmed in the processor. It
// returns each side's wall time over the n steps.
func replayBoth(traced, untraced *replayer, streams func() [2]stream, warm, n int) (elapsed [2]time.Duration, err error) {
	sides := [2]*replayer{traced, untraced}
	next := [2][2]stream{streams(), streams()}
	traced.rec.on = false
	for i := -warm; i < n; i++ {
		if i == 0 {
			traced.rec.on = true
		}
		for k := 0; k < 2; k++ {
			side := (i + k) & 1
			st := next[side][i&1]()
			start := time.Now()
			if err := sides[side].step(i, st); err != nil {
				return elapsed, err
			}
			if i >= 0 {
				elapsed[side] += time.Since(start)
			}
		}
	}
	return elapsed, nil
}

package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pcqe/internal/lineage"
	"pcqe/internal/obs"
)

// AuditEventKind classifies audit-log entries.
type AuditEventKind uint8

// Audit event kinds.
const (
	// AuditEvaluate records one policy-compliant query evaluation.
	AuditEvaluate AuditEventKind = iota
	// AuditPropose records that an improvement plan was offered.
	AuditPropose
	// AuditApply records that an improvement plan was applied.
	AuditApply
	// AuditDegrade records that improvement planning was cut short by a
	// deadline, a solver budget, or a recovered solver fault — the
	// response degraded to a partial proposal or none.
	AuditDegrade
	// AuditRollback records that an accepted improvement plan failed to
	// apply and its transaction was rolled back: the database is
	// unchanged, nothing was billed.
	AuditRollback
)

// String returns the event kind's name.
func (k AuditEventKind) String() string {
	switch k {
	case AuditEvaluate:
		return "evaluate"
	case AuditPropose:
		return "propose"
	case AuditApply:
		return "apply"
	case AuditDegrade:
		return "degrade"
	case AuditRollback:
		return "rollback"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name. The numeric
// encoding a bare uint8 would produce is lossy for journal consumers:
// a "3" in a flushed journal file is meaningless without this
// package's iota order, which is not a stable wire contract — the
// names are.
func (k AuditEventKind) MarshalJSON() ([]byte, error) {
	if k > AuditRollback {
		return nil, fmt.Errorf("core: cannot marshal unknown audit event kind %d", uint8(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the string name form produced by MarshalJSON.
func (k *AuditEventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("core: audit event kind: %w", err)
	}
	for c := AuditEvaluate; c <= AuditRollback; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("core: unknown audit event kind %q", s)
}

// AuditEvent is one entry in the engine's compliance journal. Confidence
// policies exist for governance; the journal answers "who saw what at
// which threshold, and who paid to see more".
type AuditEvent struct {
	Seq      int
	Time     time.Time
	Kind     AuditEventKind
	User     string
	Purpose  string
	Query    string
	Beta     float64
	Released int
	Withheld int
	// Cost and Increments are set for propose/apply events.
	Cost       float64
	Increments []Increment
	// Partial marks propose events whose plan is a best-effort incumbent
	// (budget exhaustion) and degrade events that still carry a proposal.
	Partial bool
	// Detail carries the degradation cause for degrade events.
	Detail string
	// ReadVersion is the committed catalog version the event's evaluation
	// (or the proposal behind an apply) read. CommitVersion is the
	// version an apply's transaction produced; the two bracket exactly
	// what the plan changed, and replaying the journal's apply events in
	// CommitVersion order reconstructs every improved confidence (see
	// ReplayConfidences). Zero means "not recorded" (pre-MVCC events,
	// rolled-back applies).
	ReadVersion   int64
	CommitVersion int64
}

// String renders the event as one journal line.
func (e AuditEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s", e.Seq, e.Kind, e.User)
	if e.Purpose != "" {
		fmt.Fprintf(&b, " purpose=%s", e.Purpose)
	}
	switch e.Kind {
	case AuditEvaluate:
		fmt.Fprintf(&b, " β=%.4g released=%d withheld=%d", e.Beta, e.Released, e.Withheld)
	case AuditPropose, AuditApply:
		fmt.Fprintf(&b, " cost=%.4g tuples=%d", e.Cost, len(e.Increments))
		if e.Partial {
			b.WriteString(" partial")
		}
	case AuditDegrade:
		fmt.Fprintf(&b, " partial=%t cause=%q", e.Partial, e.Detail)
	case AuditRollback:
		fmt.Fprintf(&b, " cause=%q", e.Detail)
	}
	if e.ReadVersion > 0 {
		fmt.Fprintf(&b, " read_version=%d", e.ReadVersion)
	}
	if e.CommitVersion > 0 {
		fmt.Fprintf(&b, " commit_version=%d", e.CommitVersion)
	}
	return b.String()
}

// AuditLog is a concurrency-safe append-only journal. The zero value is
// ready to use. Clock is overridable for deterministic tests.
type AuditLog struct {
	mu     sync.Mutex
	events []AuditEvent
	Clock  func() time.Time
}

func (l *AuditLog) record(e AuditEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = len(l.events) + 1
	if l.Clock != nil {
		e.Time = l.Clock()
	} else {
		e.Time = time.Now()
	}
	l.events = append(l.events, e)
}

// Events returns a copy of the journal.
func (l *AuditLog) Events() []AuditEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEvent{}, l.events...)
}

// UserTail returns user's last limit events, oldest first, and the
// number of events user has in all. It scans under the lock and copies
// only the events it returns, so an audit read holds up the journal's
// writers for one pass and no more.
func (l *AuditLog) UserTail(user string, limit int) ([]AuditEvent, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var tail []AuditEvent
	total := 0
	for i := len(l.events) - 1; i >= 0; i-- {
		if l.events[i].User != user {
			continue
		}
		total++
		if len(tail) < limit {
			tail = append(tail, l.events[i])
		}
	}
	slices.Reverse(tail)
	return tail, total
}

// Len returns the number of recorded events.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// ByKind returns the recorded events of one kind, in order.
func (l *AuditLog) ByKind(kind AuditEventKind) []AuditEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []AuditEvent
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TotalImprovementSpend sums the cost of all applied improvement plans —
// the running bill for data-quality work.
func (l *AuditLog) TotalImprovementSpend() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, e := range l.events {
		if e.Kind == AuditApply {
			total += e.Cost
		}
	}
	return total
}

// ReplayConfidences folds the journal's apply events with
// CommitVersion in (0, upTo] — in commit order — into the confidence
// each improved tuple reached by version upTo. Together with
// Catalog.SnapshotAt this makes the journal verifiable: for every
// improved variable, the replayed confidence must equal the snapshot's
// at the same version (tested by the audit suite).
func (l *AuditLog) ReplayConfidences(upTo int64) map[lineage.Var]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	type applied struct {
		v    int64
		incs []Increment
	}
	var applies []applied
	for _, e := range l.events {
		if e.Kind != AuditApply || e.CommitVersion <= 0 || e.CommitVersion > upTo {
			continue
		}
		applies = append(applies, applied{v: e.CommitVersion, incs: e.Increments})
	}
	sort.Slice(applies, func(i, j int) bool { return applies[i].v < applies[j].v })
	out := map[lineage.Var]float64{}
	for _, a := range applies {
		for _, inc := range a.incs {
			out[inc.Var] = inc.To
		}
	}
	return out
}

// ImprovedTuples returns the distinct base tuples whose confidence was
// raised by applied plans, with the cumulative spend per tuple.
func (l *AuditLog) ImprovedTuples() map[lineage.Var]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[lineage.Var]float64{}
	for _, e := range l.events {
		if e.Kind != AuditApply {
			continue
		}
		for _, inc := range e.Increments {
			out[inc.Var] += inc.Cost
		}
	}
	return out
}

// SetAudit attaches a journal to the engine; nil detaches. Evaluate,
// proposal creation and Apply record events while attached.
func (e *Engine) SetAudit(log *AuditLog) { e.audit = log }

// Audit returns the attached journal (nil when none).
func (e *Engine) Audit() *AuditLog { return e.audit }

// SetMetrics attaches a metrics registry; nil detaches. While
// attached, every evaluation, degradation, proposal, apply and audit
// event updates the registry's counters and histograms (see DESIGN.md
// §8 for the metric names), and the catalog's transaction/snapshot
// counters publish to the same registry.
func (e *Engine) SetMetrics(m *obs.Metrics) {
	e.metrics = m
	e.plans.SetMetrics(m)
	e.catalog.SetMetrics(m)
}

// Metrics returns the attached registry (nil when none).
func (e *Engine) Metrics() *obs.Metrics { return e.metrics }

// SetTracer attaches a span tracer; nil detaches. Response.Timings is
// populated either way; a tracer is handed every request's root span
// and decides what to retain.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// recordAudit journals ev (when a journal is attached) and mirrors the
// event into the per-kind audit counters of the metrics registry, so
// Metrics.Snapshot() and AuditLog.ByKind agree event for event.
func (e *Engine) recordAudit(ev AuditEvent) {
	if e.audit != nil {
		e.audit.record(ev)
	}
	e.metrics.Counter("engine.audit." + ev.Kind.String()).Inc()
}

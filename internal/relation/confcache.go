package relation

import (
	"sync"

	"pcqe/internal/lineage"
)

// LineageClass partitions result formulas by evaluation complexity, per
// the read-once dichotomy: read-once formulas admit the linear-time
// independent-product evaluation, everything else needs Shannon
// expansion over its shared variables, whose cost is exponential in the
// pivot count.
type LineageClass uint8

// Lineage complexity classes.
const (
	// LineageReadOnce: every variable occurs once; probability is exact
	// in linear time (probReadOnce).
	LineageReadOnce LineageClass = iota
	// LineageBounded: at most BoundedPivotLimit shared variables; exact
	// Shannon expansion enumerates a small pivot cube.
	LineageBounded
	// LineageHard: more shared variables than BoundedPivotLimit; exact
	// evaluation is exponential in practice, not just in principle.
	LineageHard

	numLineageClasses = 3
)

// String implements fmt.Stringer.
func (c LineageClass) String() string {
	switch c {
	case LineageReadOnce:
		return "read-once"
	case LineageBounded:
		return "bounded-pivot"
	case LineageHard:
		return "hard"
	}
	return "unknown"
}

// BoundedPivotLimit separates bounded-pivot from hard formulas: up to
// this many Shannon pivots (2^8 = 256 leaf evaluations) the exact path
// is still cheap enough to treat as routine.
const BoundedPivotLimit = 8

// ConfCacheStats is a snapshot of a ConfidenceCache's counters. The
// per-class arrays are indexed by LineageClass.
type ConfCacheStats struct {
	Hits, Misses int64
	// Rows counts confidence requests per class (hits and misses).
	Rows [numLineageClasses]int64
	// Evals counts evaluations per class: cache misses plus incremental
	// re-evaluations at commit.
	Evals [numLineageClasses]int64
	// Pivots totals the compiled Machine's Shannon pivot leaf
	// evaluations per class (always 0 for read-once).
	Pivots [numLineageClasses]int64
	// IncrementalReevals counts entries recomputed at a commit because
	// their lineage references a touched variable; IncrementalRestamps
	// counts entries carried to the new epoch untouched (their formulas
	// reference none of the committed variables); IncrementalDrops
	// counts stale entries (more than one epoch behind) discarded.
	IncrementalReevals  int64
	IncrementalRestamps int64
	IncrementalDrops    int64
}

// ConfidenceCache memoizes derived-tuple confidences keyed on (formula
// fingerprint, confidence epoch): repeated policy filtering of the same
// results skips the probability computation entirely until some base
// confidence changes. Evaluation routes by lineage class — read-once
// formulas go straight to the linear-time path, shared formulas through
// the compiled Shannon kernel, whose pivot counters the cache
// aggregates per class. Safe for concurrent use.
type ConfidenceCache struct {
	cat *Catalog
	cap int

	mu      sync.Mutex
	entries map[string]confEntry
	stats   ConfCacheStats
}

type confEntry struct {
	epoch int64
	p     float64
	class LineageClass
	// expr and vars (the formula and its sorted, deduplicated variable
	// set) drive incremental re-evaluation at commit: a commit touching
	// none of vars carries the entry forward without recomputing.
	expr *lineage.Expr
	vars []lineage.Var
}

// DefaultConfidenceCacheSize bounds the cache when NewConfidenceCache
// is given a non-positive capacity.
const DefaultConfidenceCacheSize = 1 << 16

// NewConfidenceCache builds a cache over the catalog's current
// confidences and registers it for incremental advancement at every
// confidence-changing commit.
func NewConfidenceCache(cat *Catalog, capacity int) *ConfidenceCache {
	if capacity <= 0 {
		capacity = DefaultConfidenceCacheSize
	}
	cc := &ConfidenceCache{cat: cat, cap: capacity, entries: make(map[string]confEntry)}
	cat.registerCache(cc)
	return cc
}

// Stats returns a snapshot of the cache counters.
func (cc *ConfidenceCache) Stats() ConfCacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.stats
}

// Len returns the number of cached formulas (including stale epochs not
// yet overwritten).
func (cc *ConfidenceCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}

// ConfidenceAtAcc returns the tuple's exact confidence at the snapshot's
// pinned version, serving it from the cache when the formula was
// already evaluated under the snapshot's confidence epoch. Taking the
// snapshot guarantees the epoch the entry is keyed on and the
// confidences the evaluation reads belong to the same committed version
// (looking the epoch up separately from the evaluation could stamp a
// value computed at epoch N with epoch N+1). A formula with more than
// lineage.DefaultSharedLimit shared variables fails with an error
// wrapping lineage.ErrTooManyShared and caches nothing.
//
// The call's counter deltas accumulate into acc (nil-safe). Callers
// that attribute cache behavior to one request (per-phase span
// attributes) need the per-call deltas: the cache-wide Stats() counters
// advance for every concurrent session, so a before/after difference
// around one request charges it with other sessions' rows and pivots.
// Historical snapshots (SnapshotAt behind the latest commit) bypass the
// cache — entries are keyed on the current epoch only — and accumulate
// nothing, matching Stats().
func (cc *ConfidenceCache) ConfidenceAtAcc(t *Tuple, snap *Snapshot, acc *ConfCacheStats) (float64, error) {
	if snap.Historical() {
		_, p, _, err := evalClassified(t.Lineage, snap)
		return p, err
	}
	key := t.Lineage.String()
	epoch := snap.ConfEpoch()
	cc.mu.Lock()
	if e, ok := cc.entries[key]; ok && e.epoch == epoch {
		cc.stats.Hits++
		cc.stats.Rows[e.class]++
		cc.mu.Unlock()
		if acc != nil {
			acc.Hits++
			acc.Rows[e.class]++
		}
		return e.p, nil
	}
	cc.mu.Unlock()

	class, p, pivots, err := evalClassified(t.Lineage, snap)
	if err != nil {
		return 0, err
	}

	cc.mu.Lock()
	cc.stats.Misses++
	cc.stats.Rows[class]++
	cc.stats.Evals[class]++
	cc.stats.Pivots[class] += pivots
	if _, exists := cc.entries[key]; !exists && len(cc.entries) >= cc.cap {
		// Random eviction: drop one arbitrary entry (map iteration order).
		for k := range cc.entries {
			delete(cc.entries, k)
			break
		}
	}
	cc.entries[key] = confEntry{epoch: epoch, p: p, class: class, expr: t.Lineage, vars: t.Lineage.Vars()}
	cc.mu.Unlock()
	if acc != nil {
		acc.Misses++
		acc.Rows[class]++
		acc.Evals[class]++
		acc.Pivots[class] += pivots
	}
	return p, nil
}

// advance moves the cache from confidence epoch prev to next after a
// commit that changed the confidences of the changed variables. Called
// by the catalog under the writer lock, immediately after publication,
// so the base confidences it reads are exactly the committed state.
//
// Instead of letting a commit invalidate everything, each entry is
// triaged: entries whose formula reads none of the changed variables
// keep their value and are re-stamped to the new epoch (the dominant
// case when a commit touches k of N base tuples, k ≪ N); entries whose
// formula intersects the changed set are recomputed; entries already
// behind by more than one epoch are dropped (their carried value may
// reflect changes the triage cannot see).
func (cc *ConfidenceCache) advance(prev, next int64, changed []lineage.Var) {
	changedSet := make(map[lineage.Var]struct{}, len(changed))
	for _, v := range changed {
		changedSet[v] = struct{}{}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for k, e := range cc.entries {
		if e.epoch >= next {
			continue
		}
		if e.epoch != prev || e.expr == nil {
			delete(cc.entries, k)
			cc.stats.IncrementalDrops++
			continue
		}
		touched := false
		for _, v := range e.vars {
			if _, ok := changedSet[v]; ok {
				touched = true
				break
			}
		}
		if !touched {
			e.epoch = next
			cc.entries[k] = e
			cc.stats.IncrementalRestamps++
			continue
		}
		// The error is ignored for a reason: a cached formula already
		// compiled under the shared limit once, and it is immutable.
		class, p, pivots, _ := evalClassified(e.expr, cc.cat)
		e.epoch, e.p, e.class = next, p, class
		cc.entries[k] = e
		cc.stats.IncrementalReevals++
		cc.stats.Evals[class]++
		cc.stats.Pivots[class] += pivots
	}
}

// evalClassified computes a formula's probability on the path its class
// dictates. Read-once formulas use the linear independent-product walk
// (exact and bit-identical to Shannon expansion, which never pivots on
// them); shared formulas use the compiled kernel so the Machine's pivot
// counters surface the true Shannon cost. More shared variables than
// lineage.DefaultSharedLimit is an error (wrapping
// lineage.ErrTooManyShared), not a panic: a client's query shape decides
// the count.
func evalClassified(e *lineage.Expr, assign lineage.Assignment) (LineageClass, float64, int64, error) {
	if e.ReadOnce() {
		return LineageReadOnce, lineage.ProbIndependent(e, assign), 0, nil
	}
	prog, err := lineage.CompileExact(e, lineage.DefaultSharedLimit)
	if err != nil {
		return LineageHard, 0, 0, err
	}
	class := LineageBounded
	if len(prog.SharedSlots()) > BoundedPivotLimit {
		class = LineageHard
	}
	m := lineage.NewMachine(prog)
	probs := make([]float64, prog.NumSlots())
	for i, v := range prog.Vars() {
		probs[i] = assign.ProbOf(v)
	}
	p := m.Prob(probs)
	_, pivots := m.Counters()
	return class, p, pivots, nil
}

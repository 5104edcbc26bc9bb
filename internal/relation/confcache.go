package relation

import (
	"math"
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

// ConfCacheStats counts confidence requests. The per-class arrays are
// indexed by LineageClass. A caller's accumulator (ConfidenceAtAcc's
// acc) counts every row it asked about, read-once rows included; the
// cache-wide Stats() count only what the cache serves — shared formulas
// at the latest version — so their read-once entries stay 0.
type ConfCacheStats struct {
	// Hits and Misses count shared formulas served from an entry or
	// evaluated for one.
	Hits, Misses int64
	// Rows counts confidence requests per class.
	Rows [numLineageClasses]int64
	// Pivots totals the compiled Machine's Shannon pivot leaf
	// evaluations per class (always 0 for read-once).
	Pivots [numLineageClasses]int64
	// Invalidated counts entries a commit marked stale because their
	// formula reads a changed variable — the only entries it visits;
	// Dropped counts entries discarded because the cache was not told
	// about an epoch in between.
	Invalidated int64
	Dropped     int64
}

// ConfidenceCache memoizes the confidences of shared formulas — those
// some variable occurs in more than once — keyed on the formula's
// rendering: repeated policy filtering of the same results skips the
// compiled Shannon kernel entirely until a base confidence the formula
// reads changes. The cache aggregates the kernel's pivot counters per
// class. A read-once formula never reaches it: its confidence is one
// linear walk over its own variables, cheaper than the key. Safe for
// concurrent use.
//
// Validity invariant: the cache stands at the confidence epoch its
// catalog last told it about, and an entry's value is the formula's
// confidence at every epoch from its validFrom through the cache's — a
// commit marks stale exactly the entries reading a changed variable
// (the next reader recomputes them, outside every lock) and leaves the
// rest alone, stamp included. A reader at snapshot epoch E is served an
// entry iff validFrom ≤ E ≤ cache epoch and may insert or refresh only
// when E is the cache's epoch; otherwise it evaluates for itself.
type ConfidenceCache struct {
	cat *Catalog
	cap int

	mu      sync.Mutex
	epoch   int64
	entries map[string]*confEntry
	// postings inverts entries: variable → the resident entries whose
	// formula reads it, kept exact on insert and eviction, so a commit
	// visits only what it touched.
	postings map[lineage.Var][]*confEntry
	stats    ConfCacheStats
}

type confEntry struct {
	key       string
	validFrom int64 // stale: invalidated by a commit, awaiting a reader
	p         float64
	class     LineageClass  // bounded or hard
	vars      []lineage.Var // sorted and deduplicated: the postings to keep
}

// stale is past every epoch a reader can hold.
const stale = math.MaxInt64

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
	cc := &ConfidenceCache{cat: cat, cap: capacity}
	cc.reset()
	cat.registerCache(cc)
	// Registered, then stamped under advance's lock: a racing commit is
	// either published already (and read here) or advances the cache.
	cc.mu.Lock()
	cc.epoch = cat.ConfEpoch()
	cc.mu.Unlock()
	return cc
}

func (cc *ConfidenceCache) reset() {
	cc.entries = make(map[string]*confEntry)
	cc.postings = make(map[lineage.Var][]*confEntry)
}

// Stats returns a snapshot of the cache counters.
func (cc *ConfidenceCache) Stats() ConfCacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.stats
}

// Len returns the number of cached formulas.
func (cc *ConfidenceCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}

// ConfidenceAtAcc returns the tuple's exact confidence at the snapshot's
// pinned version. A read-once formula is what its plan priced at that
// version (Tuple.Priced), else the linear independent-product walk's: it
// renders no key, takes no lock and counts only in acc. A shared formula
// is served from the cache when the cached value covers the snapshot's
// confidence epoch (see the validity invariant). Taking the snapshot guarantees the epoch and the
// confidences the evaluation reads belong to the same committed version.
// A formula with more than lineage.DefaultSharedLimit shared variables
// fails with an error wrapping lineage.ErrTooManyShared and caches
// nothing.
//
// The call's counter deltas accumulate into acc (nil-safe). Callers
// that attribute cache behavior to one request (per-phase span
// attributes) need the per-call deltas: the cache-wide Stats() counters
// advance for every concurrent session, so a before/after difference
// around one request charges it with other sessions' rows and pivots.
// Historical snapshots (SnapshotAt behind the latest commit) bypass the
// cache for shared formulas — their epoch is unknowable — and
// accumulate nothing, matching Stats().
func (cc *ConfidenceCache) ConfidenceAtAcc(t *Tuple, snap *Snapshot, acc *ConfCacheStats) (float64, error) {
	if p, priced := t.Priced(snap.Version()); priced || t.Lineage.ReadOnce() {
		if acc != nil {
			acc.Rows[LineageReadOnce]++
		}
		if !priced {
			p = lineage.ProbIndependent(t.Lineage, snap)
		}
		return p, nil
	}
	if snap.Historical() {
		_, p, _, err := evalShared(t.Lineage, snap)
		return p, err
	}
	key := t.Lineage.String()
	epoch := snap.ConfEpoch()
	cc.mu.Lock()
	if e, ok := cc.entries[key]; ok && e.validFrom <= epoch && epoch <= cc.epoch {
		p, class := e.p, e.class // a commit rewrites the entry in place
		cc.stats.Hits++
		cc.stats.Rows[class]++
		cc.mu.Unlock()
		if acc != nil {
			acc.Hits++
			acc.Rows[class]++
		}
		return p, nil
	}
	cc.mu.Unlock()

	class, p, pivots, err := evalShared(t.Lineage, snap)
	if err != nil {
		return 0, err
	}

	cc.mu.Lock()
	cc.stats.Misses++
	cc.stats.Rows[class]++
	cc.stats.Pivots[class] += pivots
	// A commit may have advanced the cache since the lookup: a value
	// computed at an older epoch must not land beside current ones.
	if epoch == cc.epoch {
		if old, exists := cc.entries[key]; !exists {
			cc.insert(&confEntry{key: key, validFrom: epoch, p: p, class: class, vars: t.Lineage.Vars()})
		} else if old.validFrom == stale {
			old.validFrom, old.p, old.class = epoch, p, class
		}
	}
	cc.mu.Unlock()
	if acc != nil {
		acc.Misses++
		acc.Rows[class]++
		acc.Pivots[class] += pivots
	}
	return p, nil
}

// insert adds a fresh entry and its postings, evicting an arbitrary
// entry (map iteration order) from a full cache.
func (cc *ConfidenceCache) insert(e *confEntry) {
	if len(cc.entries) >= cc.cap {
		for _, victim := range cc.entries {
			cc.evict(victim)
			break
		}
	}
	cc.entries[e.key] = e
	for _, v := range e.vars {
		cc.postings[v] = append(cc.postings[v], e)
	}
}

func (cc *ConfidenceCache) evict(e *confEntry) {
	delete(cc.entries, e.key)
	for _, v := range e.vars {
		list := cc.postings[v]
		for i, x := range list {
			if x == e {
				list[i] = list[len(list)-1]
				list[len(list)-1] = nil
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(cc.postings, v)
		} else {
			cc.postings[v] = list
		}
	}
}

// advance moves the cache from confidence epoch prev to next after a
// commit that changed the confidences of the changed variables. Called
// by the catalog under the writer lock, immediately after publication.
//
// The cost is what the commit touched: the postings lead to the entries
// reading a changed variable, which are marked stale, one store each —
// recomputing them here would do under the writer's locks, for every
// such entry, what only the readers that ask again need. Every other
// entry is not visited and stays valid by its stamp. A cache that
// missed an epoch in between (prev is not where it stands) starts empty.
func (cc *ConfidenceCache) advance(prev, next int64, changed []lineage.Var) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.epoch != prev {
		cc.stats.Dropped += int64(len(cc.entries))
		cc.reset()
	}
	cc.epoch = next
	for _, v := range changed {
		for _, e := range cc.postings[v] {
			if e.validFrom != stale {
				e.validFrom = stale
				cc.stats.Invalidated++
			}
		}
	}
}

// evalClassified computes a formula's probability on the path its class
// dictates: read-once formulas use the linear independent-product walk
// (exact and bit-identical to Shannon expansion, which never pivots on
// them), shared ones evalShared. The _confidence column prices every row
// through it.
func evalClassified(e *lineage.Expr, assign lineage.Assignment) (LineageClass, float64, int64, error) {
	if e.ReadOnce() {
		return LineageReadOnce, lineage.ProbIndependent(e, assign), 0, nil
	}
	return evalShared(e, assign)
}

// evalShared computes a shared formula's probability with the compiled
// kernel, so the Machine's pivot counters surface the true Shannon cost,
// and classes it bounded or hard. More shared variables than
// lineage.DefaultSharedLimit is an error (wrapping
// lineage.ErrTooManyShared), not a panic: a client's query shape decides
// the count.
func evalShared(e *lineage.Expr, assign lineage.Assignment) (LineageClass, float64, int64, error) {
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

package sql

import (
	"container/list"
	"sync"

	"pcqe/internal/obs"
	"pcqe/internal/relation"
)

// PlanCache memoizes compiled operator trees keyed on the statement's
// normalized fingerprint (see fingerprint.go). Operators are re-openable
// by contract, so a cached tree is re-run directly — but a tree can bake
// plan-time state in (materialized IN-subqueries, chosen index paths),
// so every hit is validated against the catalog's plan epoch (which
// advances on DDL and row mutations but not on confidence-only commits,
// so improvement-plan application keeps the hit rate intact), and
// against the confidence epoch when the statement mentions
// _confidence. A tree also holds run state, so an entry is checked out
// exclusively while it runs; a concurrent query for the same key plans
// afresh.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*planEntry
	order    *list.List // LRU: front = most recent
	metrics  *obs.Metrics
}

type planEntry struct {
	key           string
	op            relation.Operator
	schema        *relation.Schema
	info          *PlanInfo
	planEpoch     int64
	confSensitive bool
	confEpoch     int64
	inUse         bool
	elem          *list.Element
}

// DefaultPlanCacheSize bounds the cache when NewPlanCache is given a
// non-positive capacity.
const DefaultPlanCacheSize = 256

// NewPlanCache builds an LRU plan cache.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{capacity: capacity, entries: map[string]*planEntry{}, order: list.New()}
}

// SetMetrics attaches the registry that counts hits and misses
// (sql.plancache.hits / sql.plancache.misses); nil detaches.
func (pc *PlanCache) SetMetrics(m *obs.Metrics) {
	pc.mu.Lock()
	pc.metrics = m
	pc.mu.Unlock()
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// QueryResult is the outcome of one PlanCache.QuerySnap call.
type QueryResult struct {
	Rows   []*relation.Tuple
	Schema *relation.Schema
	// Info is the plan's metadata (cost annotations, lineage hint).
	Info *PlanInfo
	// Hit reports whether this call was served from the cache. Callers
	// that attribute cache behavior to one request (span attributes)
	// need the per-call flag: the process-wide registry counters advance
	// for every concurrent session, so a before/after delta around one
	// call misattributes other sessions' work.
	Hit bool
}

// QuerySnap parses, plans and runs a SQL string through the cache
// against the snapshot's pinned version: cache validity is judged by
// the snapshot's epochs, and the plan (cached or fresh) executes pinned
// to the snapshot, so concurrent commits can neither invalidate the
// answer mid-run nor leak newer rows into it. Historical (time-travel)
// reads bypass the cache and report a miss: a historical snapshot has
// no epoch counters to validate an entry against. So does a nil cache,
// which is how the uncached sql.QuerySnap runs.
func (pc *PlanCache) QuerySnap(snap *relation.Snapshot, query string) (QueryResult, error) {
	stmt, err := Parse(query)
	if err != nil {
		return QueryResult{}, err
	}
	var key string
	cacheable := pc != nil && !snap.Historical()
	if cacheable {
		key = cacheKey(fingerprintStmt(stmt))
		if e := pc.checkout(snap, key); e != nil {
			rows, err := relation.RunAt(e.op, snap.Version())
			pc.checkin(e)
			if err != nil {
				return QueryResult{Hit: true}, err
			}
			return QueryResult{Rows: rows, Schema: e.schema, Info: e.info, Hit: true}, nil
		}
	}
	op, info, rows, err := planAndRun(snap.Catalog(), stmt, snap.Version())
	if err != nil {
		return QueryResult{}, err
	}
	res := QueryResult{Rows: rows, Schema: op.Schema(), Info: info}
	if cacheable {
		pc.insert(&planEntry{
			key: key, op: op, schema: res.Schema, info: info,
			planEpoch:     snap.PlanEpoch(),
			confSensitive: stmtTreeReferencesConfidence(stmt),
			confEpoch:     snap.ConfEpoch(),
		})
	}
	return res, nil
}

// checkout looks the key up and, on a valid idle hit, marks the entry
// in-use and returns it. Stale entries are dropped; busy or absent keys
// count as misses and return nil.
func (pc *PlanCache) checkout(snap *relation.Snapshot, key string) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.entries[key]; ok {
		stale := e.planEpoch != snap.PlanEpoch() || (e.confSensitive && e.confEpoch != snap.ConfEpoch())
		switch {
		case stale && !e.inUse:
			delete(pc.entries, key)
			pc.order.Remove(e.elem)
		case !stale && !e.inUse:
			e.inUse = true
			pc.order.MoveToFront(e.elem)
			pc.metrics.Counter("sql.plancache.hits").Inc()
			return e
		}
	}
	pc.metrics.Counter("sql.plancache.misses").Inc()
	return nil
}

// checkin marks a checked-out entry idle again after its run.
func (pc *PlanCache) checkin(e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e.inUse = false
	pc.order.MoveToFront(e.elem)
}

// insert caches a fresh plan after a successful run, if the key is
// still free.
func (pc *PlanCache) insert(e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, exists := pc.entries[e.key]; exists {
		return // a concurrent run already cached this key
	}
	e.elem = pc.order.PushFront(e)
	pc.entries[e.key] = e
	for len(pc.entries) > pc.capacity {
		// Evict from the back, skipping entries currently running.
		evicted := false
		for el := pc.order.Back(); el != nil; el = el.Prev() {
			v := el.Value.(*planEntry)
			if v.inUse {
				continue
			}
			delete(pc.entries, v.key)
			pc.order.Remove(el)
			evicted = true
			break
		}
		if !evicted {
			break // everything busy; allow temporary overflow
		}
	}
}

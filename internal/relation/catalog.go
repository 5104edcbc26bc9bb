package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pcqe/internal/lineage"
	"pcqe/internal/obs"
)

// Catalog owns the tables of a database and assigns catalog-wide
// lineage variables to base tuples; confidence lookups for lineage
// probability evaluation go through a Snapshot or AssignmentAt, which
// name the committed version they read.
//
// Storage is multi-versioned (see DESIGN.md §11): every mutation goes
// through a single-writer Txn (Begin/Commit/Rollback; Table.Insert
// auto-commits one for a single row) and publishes a new committed
// version atomically. Readers take Snapshot() views pinned to a
// committed version and are never blocked by, nor observe, in-flight
// writes.
type Catalog struct {
	// mu guards the table registry and the registered confidence
	// caches. Writers additionally hold wmu; plain readers only ever
	// take mu briefly, and never to resolve a variable.
	mu     sync.RWMutex
	tables map[string]*Table
	caches []*ConfidenceCache

	// vars resolves lineage variables to their rows without a lock (see
	// varDir's publication rule); next is the variable allocator. Only
	// writers (under wmu) change either.
	vars varDir
	next lineage.Var
	// text is the string dictionary every TEXT cell of the catalog's
	// tables is a code into; read lock-free, written under wmu.
	text *dict
	// offsets holds every record offset of a chunk, ascending: what a
	// scan's batch starts as, copied by every leaf, written by none.
	offsets []int32

	// wmu serializes write transactions (single-writer MVCC).
	wmu sync.Mutex
	// ver is the latest commit point. Writers (under wmu) replace the
	// record whole and never modify a published one, so one Load reads a
	// consistent triple.
	ver atomic.Pointer[version]

	snapCount atomic.Int64
	metrics   atomic.Pointer[obs.Metrics]
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{
		tables: map[string]*Table{},
		next:   1,
		text:   newDict(),
	}
	c.offsets = make([]int32, chunkLen)
	for i := range c.offsets {
		c.offsets[i] = int32(i)
	}
	c.ver.Store(&version{})
	return c
}

// version is one commit point. seq is the committed version, the total
// commit order: every committing transaction and every DDL step
// advances it by exactly one; snapshots pin it and the audit journal
// records it. planEpoch advances on commits that can change a cached
// plan's shape or a materialized subquery result (DDL, insert, delete,
// value update) — confidence-only commits leave it alone, so plan
// caches keep their hit rate across improvement-plan application.
// confEpoch advances on commits that change any base-tuple confidence;
// cached derived confidences are keyed on it.
type version struct {
	seq, planEpoch, confEpoch int64
}

// SetMetrics attaches a metrics registry to the catalog's transaction
// and snapshot counters; nil detaches. Safe to call concurrently with
// readers and writers.
func (c *Catalog) SetMetrics(m *obs.Metrics) { c.metrics.Store(m) }

// CreateTable registers a new empty table. Table names are
// case-insensitive. Creation is its own committed version.
func (c *Catalog) CreateTable(name string, schema *Schema) (*Table, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	key := strings.ToLower(name)
	c.mu.RLock()
	_, exists := c.tables[key]
	c.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("relation: table %q already exists", name)
	}
	qualified := make([]Column, len(schema.Columns))
	for i, col := range schema.Columns {
		col.Table = name
		qualified[i] = col
	}
	t := &Table{Name: name, schema: &Schema{Columns: qualified}, catalog: c}
	c.mu.Lock()
	c.tables[key] = t
	c.mu.Unlock()
	c.commitDDL()
	return t, nil
}

// commitDDL publishes a schema change as one committed version (called
// under wmu).
func (c *Catalog) commitDDL() {
	prev := c.ver.Load()
	c.ver.Store(&version{seq: prev.seq + 1, planEpoch: prev.planEpoch + 1, confEpoch: prev.confEpoch})
}

// Version returns the committed version: a counter that advances by
// one on every committed transaction (including confidence-only ones)
// and DDL step. Snapshots pin it; audit events record it; equal
// versions guarantee identical visible database state.
func (c *Catalog) Version() int64 { return c.ver.Load().seq }

// PlanEpoch returns the plan-invalidation epoch: it advances only on
// commits that can change a plan's shape or a materialized-subquery
// result (DDL and row mutations, not confidence-only changes). Cached
// query plans are keyed on it.
func (c *Catalog) PlanEpoch() int64 { return c.ver.Load().planEpoch }

// ConfEpoch returns the confidence epoch: a counter bumped on every
// commit that changes base-tuple confidence. Cached derived-tuple
// confidences are valid only while the epoch they were computed under
// is current.
func (c *Catalog) ConfEpoch() int64 { return c.ver.Load().confEpoch }

// Table looks a table up by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("relation: unknown table %q", name)
	}
	return t, nil
}

// TableNames returns the sorted names of all tables.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// DropTable removes a table. Its rows remain resolvable by variable so
// that lineage of previously computed results stays meaningful.
func (c *Catalog) DropTable(name string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	key := strings.ToLower(name)
	c.mu.Lock()
	_, ok := c.tables[key]
	if ok {
		delete(c.tables, key)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("relation: unknown table %q", name)
	}
	c.commitDDL()
	return nil
}

// nextVar allocates a lineage variable (writers only, under wmu).
func (c *Catalog) nextVar() lineage.Var {
	v := c.next
	c.next++
	return v
}

// registerCache subscribes a confidence cache to incremental
// advancement at commit.
func (c *Catalog) registerCache(cc *ConfidenceCache) {
	c.mu.Lock()
	c.caches = append(c.caches, cc)
	c.mu.Unlock()
}

// advanceCaches moves every registered confidence cache from the
// previous to the new confidence epoch (called under wmu, right after
// publication, so the caches observe exactly the committed state).
func (c *Catalog) advanceCaches(prevEpoch, newEpoch int64, changed []lineage.Var) {
	c.mu.RLock()
	caches := c.caches
	c.mu.RUnlock()
	for _, cc := range caches {
		cc.advance(prevEpoch, newEpoch, changed)
	}
}

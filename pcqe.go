// Package pcqe is a Go implementation of Policy-Compliant Query
// Evaluation: query processing that complies with data confidence
// policies, reproducing Dai, Lin, Kantarcioglu, Bertino, Celikel and
// Thuraisingham, "Query Processing Techniques for Compliance with Data
// Confidence Policies" (Secure Data Management @ VLDB, 2009).
//
// The library bundles:
//
//   - an in-memory relational engine whose tuples carry confidence
//     values and whose operators propagate Trio-style lineage;
//   - a SQL front end (SELECT/PROJECT/JOIN, aggregates, set operations);
//   - RBAC-based confidence policies ⟨role, purpose, β⟩ that filter
//     query results by their computed confidence;
//   - three confidence-increment planners — branch-and-bound heuristic
//     search, two-phase greedy, and divide-and-conquer — that compute a
//     minimum-cost way to raise base-tuple confidences until enough
//     results clear the policy;
//   - a provenance-based confidence assigner (after Dai et al., SDM
//     2008) and a synthetic workload generator reproducing the paper's
//     evaluation.
//
// Quick start:
//
//	cat := pcqe.NewCatalog()
//	// ... create tables, insert rows with confidences and cost functions
//	store := pcqe.NewPolicyStore(rbac, purposes)
//	engine := pcqe.NewEngine(cat, store, nil)
//	resp, err := engine.Evaluate(pcqe.Request{
//		User: "mark", Query: "SELECT ...", Purpose: "investment",
//		MinFraction: 0.5,
//	})
//	if resp.Proposal != nil {
//		fmt.Println("improving costs", resp.Proposal.Cost())
//		engine.Apply(resp.Proposal)
//	}
//
// Planning is NP-hard over #P-hard lineage, so a request may carry a
// Budget — wall clock, solver work counters, worker-pool width — and
// EvaluateContext a context; when either runs out the rows are still
// returned, Response.Degraded says why, and a surviving incumbent comes
// back as a partial proposal.
//
// See examples/ for complete runnable programs and DESIGN.md for the
// architecture and the paper-reproduction map.
package pcqe

import (
	"pcqe/internal/core"
	"pcqe/internal/cost"
	"pcqe/internal/lineage"
	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
	"pcqe/internal/strategy"
	"pcqe/internal/trust"
	"pcqe/internal/workload"
)

// --- Engine (the PCQE framework, Figure 1 of the paper) ---

// Engine runs policy-compliant query evaluation over one database and
// one policy store.
type Engine = core.Engine

// Request is a user query ⟨Q, purpose, θ⟩ and the Budget it may spend.
type Request = core.Request

// Budget bounds a request (Request.Budget) and the improvement solve
// inside it: Timeout, the solver's MaxNodes / MaxPivots / MaxSteps work
// counters, and the Workers pool width. The zero value is unlimited and
// serial; it is also what Solver.SolveContext takes.
type Budget = strategy.Budget

// Response carries released/withheld rows and an optional improvement
// proposal.
type Response = core.Response

// Row is one result row with its confidence.
type Row = core.Row

// Proposal is a minimum-cost confidence-increment plan.
type Proposal = core.Proposal

// Increment is one suggested base-tuple confidence raise.
type Increment = core.Increment

// Advisor estimates improvement lead time (the paper's §6 outlook).
type Advisor = core.Advisor

// AuditLog is the engine's compliance journal: evaluations, offered
// proposals and applied improvements.
type AuditLog = core.AuditLog

// AuditEvent is one journal entry.
type AuditEvent = core.AuditEvent

// NewEngine builds an engine; a nil solver selects divide-and-conquer.
func NewEngine(catalog *Catalog, policies *PolicyStore, solver Solver) *Engine {
	return core.NewEngine(catalog, policies, solver)
}

// NewAdvisor builds a lead-time advisor.
var NewAdvisor = core.NewAdvisor

// --- Observability ---

// Metrics is the engine's counter/gauge/histogram registry (attach with
// Engine.SetMetrics; inspect with Metrics.Snapshot, render with
// MetricsSnapshot.WritePrometheus, or serve it as an http.Handler).
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of a registry's values.
type MetricsSnapshot = obs.Snapshot

// Span is one timed request phase; Response.Timings is the root of a
// request's span tree.
type Span = obs.Span

// Tracer retains request span trees (attach with Engine.SetTracer).
type Tracer = obs.Tracer

// NewMetrics creates an empty metrics registry.
var NewMetrics = obs.New

// --- Relational engine ---

// Catalog owns tables and base-tuple confidences.
type Catalog = relation.Catalog

// Table is an in-memory relation with confidence-carrying rows.
type Table = relation.Table

// Schema describes a relation's columns.
type Schema = relation.Schema

// Column is one attribute.
type Column = relation.Column

// Value is a dynamically typed SQL value.
type Value = relation.Value

// Tuple is a row with lineage.
type Tuple = relation.Tuple

// Snapshot is an immutable read view of a catalog pinned to one
// committed version (MVCC; see DESIGN.md §11), and the only way to read
// rows or confidences: Table.RowsAt, Snapshot.Confidence and QuerySnap
// all take one, so every read names the version it sees. Take one with
// Catalog.Snapshot or Catalog.SnapshotAt and Release it when done.
type Snapshot = relation.Snapshot

// Txn is a single-writer transaction over a catalog: all mutations
// commit atomically or roll back without a trace. Open one with
// Catalog.Begin. Deletes, updates and confidence changes exist only as
// Txn methods (SQL DML opens one per statement and reads its WHERE
// subqueries at Txn.ReadVersion); Table.Insert remains as a one-row
// shorthand for loading fixtures.
type Txn = relation.Txn

// NewCatalog creates an empty database catalog.
var NewCatalog = relation.NewCatalog

// NewSchema builds a schema from columns.
var NewSchema = relation.NewSchema

// Value constructors.
var (
	Null    = relation.Null
	Bool    = relation.Bool
	Int     = relation.Int
	Float   = relation.Float
	String  = relation.String_
	LoadCSV = relation.LoadCSV
)

// Column types.
const (
	TypeBool   = relation.TypeBool
	TypeInt    = relation.TypeInt
	TypeFloat  = relation.TypeFloat
	TypeString = relation.TypeString
)

// Exec executes any SQL statement (SELECT, EXPLAIN, CREATE/DROP TABLE,
// INSERT ... WITH CONFIDENCE, UPDATE incl. the _confidence
// pseudo-column, DELETE).
var Exec = sql.Exec

// ExecScript executes a semicolon-separated statement sequence.
var ExecScript = sql.ExecScript

// ExecResult is the outcome of Exec/ExecScript statements.
type ExecResult = sql.Result

// Explain renders a planned operator tree.
var Explain = relation.Explain

// --- Policies ---

// RBAC is the role model policies bind to.
type RBAC = policy.RBAC

// PurposeTree organizes data-usage purposes.
type PurposeTree = policy.PurposeTree

// PolicyStore holds confidence policies.
type PolicyStore = policy.Store

// ConfidencePolicy is ⟨role, purpose, β⟩ (Definition 1).
type ConfidencePolicy = policy.ConfidencePolicy

// Biba is the baseline strict-integrity model the paper contrasts with.
type Biba = policy.Biba

// NewRBAC creates an empty RBAC model.
var NewRBAC = policy.NewRBAC

// NewPurposeTree creates a purpose tree with the root purpose "any".
var NewPurposeTree = policy.NewPurposeTree

// NewPolicyStore binds a policy store to an RBAC model and purposes.
var NewPolicyStore = policy.NewStore

// NewBiba creates a Biba ladder from low to high levels.
var NewBiba = policy.NewBiba

// --- Strategy finding ---

// Solver is a confidence-increment planning algorithm: Name plus the
// one solving method, SolveContext(ctx, instance, Budget).
type Solver = strategy.Solver

// Instance is a standalone optimization instance (for direct use of the
// planners without the relational stack).
type Instance = strategy.Instance

// Plan is a solver's output.
type Plan = strategy.Plan

// Greedy is the two-phase greedy algorithm (§4.2).
type Greedy = strategy.Greedy

// Heuristic is the branch-and-bound search with H1–H4 (§4.1).
type Heuristic = strategy.Heuristic

// DivideAndConquer is the partition-solve-combine algorithm (§4.3).
type DivideAndConquer = strategy.DivideAndConquer

// NewHeuristic returns the full heuristic configuration (H1–H4 and a
// greedy-seeded bound).
var NewHeuristic = strategy.NewHeuristic

// NewDivideAndConquer returns the benchmark D&C configuration.
var NewDivideAndConquer = strategy.NewDivideAndConquer

// --- Cost model ---

// CostFunction prices confidence increments.
type CostFunction = cost.Function

// Cost function families.
type (
	LinearCost      = cost.Linear
	QuadraticCost   = cost.Quadratic
	ExponentialCost = cost.Exponential
	LogarithmicCost = cost.Logarithmic
	TableCost       = cost.Table
)

// --- Lineage ---

// Lineage is a Boolean lineage expression over base tuples.
type Lineage = lineage.Expr

// LineageVar identifies a base tuple in lineage formulas.
type LineageVar = lineage.Var

// Lineage constructors and probability evaluation.
var (
	LineageVarOf  = lineage.NewVar
	LineageAnd    = lineage.And
	LineageOr     = lineage.Or
	LineageNot    = lineage.Not
	LineageProb   = lineage.Prob
	LineageDerivs = lineage.Derivatives
)

// --- Confidence assignment (trust model) ---

// TrustModel computes base-tuple confidences from provenance.
type TrustModel = trust.Model

// TrustConfig tunes the trust fixpoint.
type TrustConfig = trust.Config

// TrustItem is one reported fact with provenance.
type TrustItem = trust.Item

// NewTrustModel creates a trust model.
var NewTrustModel = trust.NewModel

// DefaultTrustConfig is the standard trust configuration.
var DefaultTrustConfig = trust.DefaultConfig

// --- Workloads ---

// WorkloadParams mirrors Table 4 of the paper.
type WorkloadParams = workload.Params

// DefaultWorkloadParams returns Table 4's bold defaults.
var DefaultWorkloadParams = workload.DefaultParams

// GenerateWorkload builds a synthetic optimization instance per §5.1.
var GenerateWorkload = workload.Generate

package main

import (
	"fmt"
	"math"
	"math/rand"
)

// Request kinds. A cycle is the paper's full loop as one caller runs
// it: propose (a query with min_fraction), apply the offered plan,
// re-query.
const (
	kindQuery   = "query"
	kindPropose = "propose"
	kindExplain = "explain"
	kindApply   = "apply"
	kindCycle   = "cycle"
	// kindRequery is a cycle's closing query: counted and checked, but
	// kept out of query_* so those describe the reader connection alone.
	kindRequery = "requery"
)

// theta is the min_fraction every propose asks for.
const theta = 0.8

// step is one generated request: which session sends what.
type step struct {
	Kind  string
	Shape string
	Sess  int // index into sessionUsers
	SQL   string
}

// stream yields one connection's requests in order. Streams are
// deterministic in (seed, dataset, connection): the timed run and the
// traced replay build them afresh and see the same requests.
type stream func() step

// workload is one traffic mix. Each of the two connections is a caller
// that waits for its reply before sending the next request. Why each mix
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	Name string
	// CheckEvery samples every n-th response of a connection for the
	// reference comparison (cycles are always checked for their
	// invariants; the stride covers the row-by-row comparison).
	CheckEvery int
	// Warm and Replay size the traced pass: Warm untraced requests fill
	// the caches the timed run would have filled, then Replay are traced.
	Warm, Replay int
	Streams      func(seed int64, d *dataset) [2]stream
}

const joinFrom = " FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE "

func sqlPoint(name string) string {
	return "SELECT Name, Region, Rating FROM Suppliers WHERE Name = '" + name + "'"
}
func sqlDistinctJoin(a, b float64) string {
	return fmt.Sprintf("SELECT DISTINCT Suppliers.Name%sAmount > %.2f AND Rating > %.2f", joinFrom, a, b)
}
func sqlDistinctItem(k int) string {
	return fmt.Sprintf("SELECT DISTINCT Suppliers.Name%sItem = %d", joinFrom, k)
}
func sqlItemJoin(k int) string {
	return fmt.Sprintf("SELECT Suppliers.Name, Orders.Amount%sItem = %d", joinFrom, k)
}
func sqlSupplierJoin(name string) string {
	return "SELECT Suppliers.Name, Orders.Item, Orders.Amount" + joinFrom + "Suppliers.Name = '" + name + "'"
}
func sqlRegionDistinct(b float64) string {
	return fmt.Sprintf("SELECT DISTINCT Region FROM Suppliers WHERE Rating > %.3f", b)
}
func sqlRegionShared(k, w int) string {
	return fmt.Sprintf("SELECT DISTINCT Region%sItem >= %d AND Item < %d", joinFrom, k, k+w)
}

// spread draws the i-th point of a low-discrepancy sequence in
// [lo, hi): any run of consecutive requests covers the range evenly, so
// a run's work does not depend on which draws its window happened to
// contain. alpha is irrational; u0 is the seeded start.
func spread(u0, alpha float64, i int, lo, hi float64) float64 {
	_, f := math.Modf(u0 + alpha*float64(i))
	return lo + f*(hi-lo)
}

// Irrational steps of the R2 sequence (plastic number), whose pairs
// cover the unit square evenly.
const (
	alpha1 = 0.7548776662466927
	alpha2 = 0.5698402909980532
)

// connRand seeds one connection's private source.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*31 + int64(conn) + 1))
}

var workloads = []workload{pointHot, analyticCold, improveMix, proposeHeavy}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sessionsOf returns the session indices holding one of the roles.
func sessionsOf(roleNames ...string) []int {
	var out []int
	for i, u := range sessionUsers {
		for _, r := range roleNames {
			if u.Role == r {
				out = append(out, i)
			}
		}
	}
	return out
}

var pointHot = workload{
	Name:       "point_hot",
	CheckEvery: 50,
	Warm:       2000, Replay: 200,
	Streams: func(seed int64, d *dataset) [2]stream {
		// Hot keys are suppliers every role is released (confidence above
		// the strictest β), so each lookup delivers its row and rows/s does
		// not depend on which confidences a seed gave the hottest keys.
		hot := d.confidentSuppliers(200, roles[len(roles)-1].Beta)
		var out [2]stream
		for c := range out {
			r := connRand(seed, c)
			zipf := rand.NewZipf(r, 1.1, 1, uint64(len(hot)-1))
			sess := [][]int{{0, 3, 6, 2}, {1, 4, 7, 5}}[c]
			i := 0
			out[c] = func() step {
				s := step{Kind: kindQuery, Shape: "point", Sess: sess[i%len(sess)], SQL: sqlPoint(hot[zipf.Uint64()])}
				if i%10 == 9 {
					s.Kind, s.Shape = kindExplain, "explain"
				}
				i++
				return s
			}
		}
		return out
	},
}

// coldSchedule is analytic_cold's exact mix over 20 requests: 7
// distinct_join, 6 item_join, 3 supplier_join, 2 region_distinct, 2
// region_shared. A fixed schedule, not a draw per request, keeps the mix
// identical from run to run; the second connection starts half-way in.
var coldSchedule = [20]string{
	"distinct_join", "item_join", "supplier_join", "distinct_join", "item_join",
	"region_distinct", "distinct_join", "item_join", "region_shared", "distinct_join",
	"supplier_join", "item_join", "distinct_join", "region_distinct", "item_join",
	"distinct_join", "supplier_join", "region_shared", "item_join", "distinct_join",
}

var coldShapes = []string{"distinct_join", "item_join", "supplier_join", "region_distinct", "region_shared"}

var analyticCold = workload{
	Name:       "analytic_cold",
	CheckEvery: 8,
	Replay:     80,
	Streams: func(seed int64, d *dataset) [2]stream {
		// One permutation of each key space, dealt alternately to the two
		// connections, so no parameter repeats across the whole run.
		shared := connRand(seed, 2)
		items, names := shared.Perm(d.Sizes.Items), shared.Perm(d.Sizes.Suppliers)
		var out [2]stream
		for c := range out {
			r := connRand(seed, c)
			u0, u1 := r.Float64(), r.Float64()
			seen := map[string]int{} // per-shape request counters
			i := 0
			out[c] = func() step {
				shape := coldSchedule[(i+10*c)%len(coldSchedule)]
				s := step{Kind: kindQuery, Shape: shape, Sess: (i + 4*c) % len(sessionUsers)}
				k := seen[shape]
				seen[shape]++
				i++
				switch shape {
				case "distinct_join":
					s.SQL = sqlDistinctJoin(spread(u0, alpha1, k, 88, 98), spread(u1, alpha2, k, 3.0, 4.5))
				case "item_join":
					s.SQL = sqlItemJoin(items[(2*k+c)%len(items)])
				case "supplier_join":
					s.SQL = sqlSupplierJoin(supplierName(names[(2*k+c)%len(names)]))
				case "region_distinct":
					s.SQL = sqlRegionDistinct(spread(u0, alpha1, k, 1.5, 4.5))
				case "region_shared":
					// Windows stay at most 8 items wide: wider ones put more
					// than 24 shared variables in one region's formula, which
					// panics the handler at this commit (see README).
					w := 4 + 4*(k%2)
					s.SQL = sqlRegionShared(items[(2*k+c)%len(items)]%(d.Sizes.Items-w), w)
				}
				return s
			}
		}
		return out
	},
}

var improveMix = workload{
	Name:       "improve_mix",
	CheckEvery: 8,
	Replay:     60,
	Streams: func(seed int64, d *dataset) [2]stream {
		ra, rb := connRand(seed, 0), connRand(seed, 1)
		cycleItems, readItems := ra.Perm(d.Sizes.Items), rb.Perm(d.Sizes.Items)
		auditor := sessionsOf("auditor")[0]
		readers := sessionsOf("analyst", "manager")
		i, j := 0, 0
		return [2]stream{
			func() step {
				s := step{Kind: kindCycle, Shape: "distinct_item", Sess: auditor, SQL: sqlDistinctItem(cycleItems[i%len(cycleItems)])}
				i++
				return s
			},
			func() step {
				s := step{Kind: kindQuery, Shape: "item_join", Sess: readers[j%len(readers)], SQL: sqlItemJoin(readItems[j%len(readItems)])}
				j++
				return s
			},
		}
	},
}

var proposeHeavy = workload{
	Name:       "propose_heavy",
	CheckEvery: 4,
	Replay:     30,
	Streams: func(seed int64, d *dataset) [2]stream {
		aud, mgr := sessionsOf("auditor"), sessionsOf("manager")
		var out [2]stream
		for c := range out {
			r := connRand(seed, c)
			u0, u1 := r.Float64(), r.Float64()
			// Two auditor requests to one manager's: the auditor's β withholds
			// more rows, and an even split would put the median between the
			// two roles' latency modes, where it jumps from run to run.
			sess := []int{aud[c], mgr[c], aud[c]}
			i := 0
			out[c] = func() step {
				s := step{Kind: kindPropose, Shape: "distinct_join", Sess: sess[(i+c)%len(sess)],
					SQL: sqlDistinctJoin(spread(u0, alpha1, i, 85, 95), spread(u1, alpha2, i, 3.5, 4.3))}
				i++
				return s
			}
		}
		return out
	},
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// Dataset sizes. One size serves every workload: whether a request fits
// the program's caches (65 536 confidences, 256 plans) is chosen by the
// workload's parameter distribution, not by a second dataset.
type sizes struct {
	Suppliers int // rows of Suppliers(Name, Region, Rating)
	Orders    int // rows of Orders(Supplier, Item, Amount)
	Items     int // distinct Item values
	Regions   int // distinct Region values
}

var fullSizes = sizes{Suppliers: 20_000, Orders: 200_000, Items: 1000, Regions: 20}

// The three roles and the β each pins on its sessions; every session
// states the one purpose the policies are written for.
const purpose = "bench"

type role struct {
	Name string
	Beta float64
}

var roles = []role{{"analyst", 0.2}, {"manager", 0.35}, {"auditor", 0.5}}

// sessionUsers are the eight sessions every workload opens, by role.
var sessionUsers = []struct{ User, Role string }{
	{"ana1", "analyst"}, {"ana2", "analyst"}, {"ana3", "analyst"},
	{"mgr1", "manager"}, {"mgr2", "manager"}, {"mgr3", "manager"},
	{"aud1", "auditor"}, {"aud2", "auditor"},
}

const indexScript = "CREATE INDEX ON Suppliers (Name);\nCREATE INDEX ON Orders (Supplier);\n"

// dataset names the generated input files of one run.
type dataset struct {
	Sizes        sizes
	SuppliersCSV string
	OrdersCSV    string
	ExecSQL      string
	// supplierConf[i] is supplier i's generated confidence, kept so a
	// workload can choose keys by what the policy will do with them.
	supplierConf []float64
}

func supplierName(i int) string { return fmt.Sprintf("S%05d", i) }
func regionName(i int) string   { return fmt.Sprintf("R%02d", i) }

// generate writes the seeded dataset into dir. Equal (seed, sizes) give
// byte-identical files. Counts that decide how much work a query does
// are exact, not sampled — every supplier has Orders/Suppliers orders,
// every item Orders/Items, every region Suppliers/Regions suppliers —
// so a seed changes which rows match, not how many.
func generate(dir string, seed int64, sz sizes) (*dataset, error) {
	r := rand.New(rand.NewSource(seed))
	d := &dataset{
		Sizes:        sz,
		SuppliersCSV: filepath.Join(dir, "suppliers.csv"),
		OrdersCSV:    filepath.Join(dir, "orders.csv"),
		ExecSQL:      filepath.Join(dir, "indexes.sql"),
	}
	meta := func(b []byte) ([]byte, float64) {
		c := math.Round((0.05+0.9*r.Float64())*1e4) / 1e4
		b = strconv.AppendFloat(append(b, ','), c, 'f', 4, 64)
		b = strconv.AppendFloat(append(b, ','), 1+99*r.Float64(), 'f', 2, 64)
		return append(b, '\n'), c
	}

	regions := r.Perm(sz.Suppliers)
	err := writeLines(d.SuppliersCSV, "Name,Region,Rating,_confidence,_cost_rate\n", sz.Suppliers, func(i int, b []byte) []byte {
		b = append(b, supplierName(i)...)
		b = append(append(b, ','), regionName(regions[i]%sz.Regions)...)
		// Two decimals always: pcqed infers column types from the first
		// data row, and "4" would make Rating an integer column.
		b = strconv.AppendFloat(append(b, ','), 1+4*r.Float64(), 'f', 2, 64)
		b, c := meta(b)
		d.supplierConf = append(d.supplierConf, c)
		return b
	})
	if err != nil {
		return nil, err
	}

	suppliers, items := r.Perm(sz.Orders), r.Perm(sz.Orders)
	err = writeLines(d.OrdersCSV, "Supplier,Item,Amount,_confidence,_cost_rate\n", sz.Orders, func(i int, b []byte) []byte {
		b = append(b, supplierName(suppliers[i]%sz.Suppliers)...)
		b = strconv.AppendInt(append(b, ','), int64(items[i]%sz.Items), 10)
		b = strconv.AppendFloat(append(b, ','), 100*r.Float64(), 'f', 2, 64)
		b, _ = meta(b)
		return b
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(d.ExecSQL, []byte(indexScript), 0o644); err != nil {
		return nil, fmt.Errorf("benchmark: writing index script: %w", err)
	}
	return d, nil
}

// writeLines writes a header and n generated lines, checking the flush
// and close on the success path.
func writeLines(path, header string, n int, line func(i int, b []byte) []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchmark: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(header)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = line(i, buf[:0])
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("benchmark: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("benchmark: closing %s: %w", path, err)
	}
	return nil
}

// pcqedArgs are the flags the daemon under test is booted with: only
// generated inputs and the fixed role/policy table, never the seed.
func (d *dataset) pcqedArgs(addrFile string) []string {
	args := []string{
		"-table", "Suppliers=" + d.SuppliersCSV,
		"-table", "Orders=" + d.OrdersCSV,
		"-exec", d.ExecSQL,
		"-listen", "127.0.0.1:0",
		"-addr-file", addrFile,
	}
	for _, ro := range roles {
		args = append(args, "-policy", fmt.Sprintf("%s:%s:%g", ro.Name, purpose, ro.Beta))
	}
	for _, u := range sessionUsers {
		args = append(args, "-role", u.User+"="+u.Role)
	}
	return args
}

// confidentSuppliers returns up to n supplier names, in index order,
// whose confidence clears beta with a margin.
func (d *dataset) confidentSuppliers(n int, beta float64) []string {
	var out []string
	for i, c := range d.supplierConf {
		if len(out) < n && c > beta+0.01 {
			out = append(out, supplierName(i))
		}
	}
	return out
}

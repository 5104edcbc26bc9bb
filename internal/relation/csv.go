package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"pcqe/internal/cost"
)

// ConfidenceColumn is the reserved CSV column name holding per-row
// confidence; CostColumn optionally holds a linear improvement rate.
const (
	ConfidenceColumn = "_confidence"
	CostColumn       = "_cost_rate"
)

// LoadCSV reads rows into the table from CSV data whose header matches
// the table's column names (case-insensitive, in any order). A column
// named "_confidence" supplies per-row confidence (default 1); a column
// named "_cost_rate" supplies a linear cost function rate (default: row
// not improvable). The whole file loads inside one transaction: either
// every row commits as a single version, or — on any error — none do.
// The returned count is the number of rows staged before the error, for
// "line N failed after M rows" reporting.
func LoadCSV(t *Table, r io.Reader) (int, error) {
	return loadCSV(r, func(_, _ []string) (*Table, error) { return t, nil })
}

// LoadCSVFile creates table name from a CSV file and loads it with
// LoadCSV's conventions. The schema comes from the file itself: column
// names from the header (minus the "_confidence" and "_cost_rate" meta
// columns), column types from the first data row (integer, real, then
// text) — both as parsed by the CSV reader that loads the rows, so
// quoted cells infer exactly as they load.
func LoadCSVFile(cat *Catalog, name, file string) (int, error) {
	f, err := os.Open(file)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return loadCSV(f, func(header, first []string) (*Table, error) {
		if first == nil {
			return nil, fmt.Errorf("%s: need a header and at least one row", file)
		}
		var cols []Column
		for i, h := range header {
			if h == ConfidenceColumn || h == CostColumn {
				continue
			}
			// first[i] exists: the reader rejects a ragged first row.
			typ, v := TypeString, strings.TrimSpace(first[i])
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				typ = TypeInt
			} else if _, err := strconv.ParseFloat(v, 64); err == nil {
				typ = TypeFloat
			}
			cols = append(cols, Column{Name: h, Type: typ})
		}
		return cat.CreateTable(name, NewSchema(cols...))
	})
}

// loadCSV reads the header and the first data record (nil when there is
// none), asks tableFor which table they belong in, and loads that
// record and the rest of r into it in one transaction.
func loadCSV(r io.Reader, tableFor func(header, first []string) (*Table, error)) (int, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	first, err := cr.Read()
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("relation: CSV line 2: %w", err)
	}
	t, err := tableFor(header, first)
	if err != nil {
		return 0, err
	}
	// Every later record is consumed before the next is read (the cells
	// are copied into the record store), so one field slice serves them
	// all; header and first keep their own.
	cr.ReuseRecord = true
	schema := t.Schema()
	colFor := make([]int, len(header)) // header position -> schema index; -1 = meta/skip
	confIdx, costIdx := -1, -1
	seen := make([]bool, schema.Len())
	for i, h := range header {
		switch h {
		case ConfidenceColumn:
			colFor[i] = -1
			confIdx = i
			continue
		case CostColumn:
			colFor[i] = -1
			costIdx = i
			continue
		}
		idx, err := schema.Resolve("", h)
		if err != nil {
			return 0, fmt.Errorf("relation: CSV header: %w", err)
		}
		if seen[idx] {
			return 0, fmt.Errorf("relation: CSV header repeats column %q", h)
		}
		seen[idx] = true
		colFor[i] = idx
	}
	for i, s := range seen {
		if !s {
			return 0, fmt.Errorf("relation: CSV missing column %q", schema.Columns[i].Name)
		}
	}
	x := t.catalog.Begin()
	n, err := loadCSVRows(x, t, cr, first, header, colFor, confIdx, costIdx)
	if err != nil {
		x.Rollback()
		return n, err
	}
	if _, err := x.Commit(); err != nil {
		return n, err
	}
	return n, nil
}

// loadCSVRows stages first (when non-nil) and whatever cr still holds
// into the open transaction and returns how many rows it staged.
func loadCSVRows(x *Txn, t *Table, cr *csv.Reader, first, header []string, colFor []int, confIdx, costIdx int) (int, error) {
	schema := t.Schema()
	// Insert copies the cells into the record store, so one row buffer
	// serves the whole file; every column is assigned on every line.
	values := make([]Value, schema.Len())
	n := 0
	for line := 2; ; line++ {
		rec, err := first, error(nil)
		first = nil
		if rec == nil {
			rec, err = cr.Read()
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("relation: CSV line %d: %w", line, err)
		}
		confidence := 1.0
		var fn cost.Function
		for i, field := range rec {
			if i >= len(header) {
				return n, fmt.Errorf("relation: CSV line %d has %d fields, header has %d", line, len(rec), len(header))
			}
			switch i {
			case confIdx:
				confidence, err = strconv.ParseFloat(field, 64)
				if err != nil {
					return n, fmt.Errorf("relation: CSV line %d: bad confidence %q", line, field)
				}
				if math.IsNaN(confidence) || confidence < 0 || confidence > 1 {
					return n, fmt.Errorf("relation: CSV line %d: confidence %q outside [0,1]", line, field)
				}
			case costIdx:
				if field != "" {
					rate, err := strconv.ParseFloat(field, 64)
					if err != nil {
						return n, fmt.Errorf("relation: CSV line %d: bad cost rate %q", line, field)
					}
					if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
						return n, fmt.Errorf("relation: CSV line %d: cost rate %q must be a finite non-negative number", line, field)
					}
					fn = cost.Linear{Rate: rate}
				}
			default:
				idx := colFor[i]
				v, err := ParseValue(field, schema.Columns[idx].Type)
				if err != nil {
					return n, fmt.Errorf("relation: CSV line %d: %w", line, err)
				}
				if v.typ == TypeString {
					// The reader returns a line's fields as substrings of
					// one string: a stored cell must not pin its line.
					v.s = strings.Clone(v.s)
				}
				values[idx] = v
			}
		}
		if _, _, err := x.insert(t, values, confidence, fn); err != nil {
			return n, fmt.Errorf("relation: CSV line %d: %w", line, err)
		}
		n++
	}
}

// WriteCSV writes the table's rows (with confidence) as CSV, as of the
// snapshot's version.
func WriteCSV(t *Table, snap *Snapshot, w io.Writer) error {
	cw := csv.NewWriter(w)
	schema := t.Schema()
	header := make([]string, 0, schema.Len()+1)
	for _, c := range schema.Columns {
		header = append(header, c.Name)
	}
	header = append(header, ConfidenceColumn)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.RowsAt(snap) {
		rec := make([]string, 0, schema.Len()+1)
		for _, v := range row.Values() {
			if v.IsNull() {
				rec = append(rec, "")
			} else {
				rec = append(rec, v.String())
			}
		}
		rec = append(rec, strconv.FormatFloat(row.confidence, 'g', -1, 64))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

package relation

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadCSVRoundTrip(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("People", NewSchema(
		Column{Name: "Name", Type: TypeString},
		Column{Name: "Age", Type: TypeInt},
	))
	in := "Name,Age,_confidence,_cost_rate\nalice,30,0.9,10\nbob,25,0.5,\n"
	n, err := LoadCSV(tab, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || tab.Len() != 2 {
		t.Fatalf("loaded %d rows", n)
	}
	rows := tab.RowsAt(c.Snapshot())
	if rows[0].Confidence() != 0.9 || rows[1].Confidence() != 0.5 {
		t.Errorf("confidences = %v, %v", rows[0].Confidence(), rows[1].Confidence())
	}
	if rows[0].Cost() == nil {
		t.Error("row 0 should have a cost function")
	}
	if rows[1].Cost() != nil {
		t.Error("row 1 should not have a cost function")
	}
	var buf bytes.Buffer
	if err := WriteCSV(tab, c.Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "alice,30,0.9") {
		t.Errorf("WriteCSV output:\n%s", out)
	}
	if !strings.HasPrefix(out, "Name,Age,_confidence") {
		t.Errorf("WriteCSV header:\n%s", out)
	}
}

func TestLoadCSVReorderedHeader(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("People", NewSchema(
		Column{Name: "Name", Type: TypeString},
		Column{Name: "Age", Type: TypeInt},
	))
	in := "Age,Name\n30,alice\n"
	if _, err := LoadCSV(tab, strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	row := tab.RowsAt(c.Snapshot())[0]
	if s, _ := row.Values()[0].AsString(); s != "alice" {
		t.Errorf("name column = %v", row.Values()[0])
	}
	if row.Confidence() != 1 {
		t.Errorf("default confidence = %v", row.Confidence())
	}
}

func TestLoadCSVErrors(t *testing.T) {
	newTab := func() *Table {
		c := NewCatalog()
		tab, _ := c.CreateTable("P", NewSchema(
			Column{Name: "Name", Type: TypeString},
			Column{Name: "Age", Type: TypeInt},
		))
		return tab
	}
	cases := []struct {
		name, in string
	}{
		{"unknown column", "Name,Age,Bogus\na,1,x\n"},
		{"repeated column", "Name,Name\na,b\n"},
		{"missing column", "Name\na\n"},
		{"bad int", "Name,Age\na,xyz\n"},
		{"bad confidence", "Name,Age,_confidence\na,1,high\n"},
		{"bad cost", "Name,Age,_cost_rate\na,1,cheap\n"},
		{"confidence out of range", "Name,Age,_confidence\na,1,7\n"},
	}
	for _, c := range cases {
		if _, err := LoadCSV(newTab(), strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestLoadCSVNullFields(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("P", NewSchema(
		Column{Name: "Name", Type: TypeString},
		Column{Name: "Age", Type: TypeInt},
	))
	in := "Name,Age\nalice,\n"
	if _, err := LoadCSV(tab, strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if !tab.RowsAt(c.Snapshot())[0].Values()[1].IsNull() {
		t.Error("empty field should load as NULL")
	}
	var buf bytes.Buffer
	if err := WriteCSV(tab, c.Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alice,,1") {
		t.Errorf("NULL round trip:\n%s", buf.String())
	}
}

// TestLoadCSVFileInfersFromQuotedFirstRow: schema inference reads the
// header and first row through the same CSV reader that loads the
// rows, so a quoted header cell names its column without the quotes, a
// quoted comma does not shift the cells after it, and a quoted number
// still types its column as a number.
func TestLoadCSVFileInfersFromQuotedFirstRow(t *testing.T) {
	file := filepath.Join(t.TempDir(), "people.csv")
	data := "\"Name\",Rating,_confidence,\"Age\"\n\"Smith, J\",\"4.5\",0.9,30\nbob,3,0.5,25\n"
	if err := os.WriteFile(file, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	n, err := LoadCSVFile(c, "People", file)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d rows, want 2", n)
	}
	tab, err := c.Table("People")
	if err != nil {
		t.Fatal(err)
	}
	want := []Column{{Name: "Name", Type: TypeString}, {Name: "Rating", Type: TypeFloat}, {Name: "Age", Type: TypeInt}}
	got := tab.Schema().Columns
	if len(got) != len(want) {
		t.Fatalf("schema = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Type != want[i].Type {
			t.Errorf("column %d = %s %s, want %s %s", i, got[i].Name, got[i].Type, want[i].Name, want[i].Type)
		}
	}
	first := tab.RowsAt(c.Snapshot())[0]
	if first.Values()[0].String() != "Smith, J" || first.Confidence() != 0.9 {
		t.Errorf("first row = %v (confidence %v), want the inferred-from record loaded intact", first.Values(), first.Confidence())
	}
}

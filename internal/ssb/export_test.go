package ssb

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteTableRowAndFieldCounts(t *testing.T) {
	d := MustGenerate(0.01)
	fieldCounts := map[string]int{
		"lineorder": 17,
		"customer":  8,
		"supplier":  7,
		"part":      9,
		"date":      16,
	}
	rowCounts := map[string]int{
		"lineorder": d.Rows(),
		"customer":  len(d.Customer),
		"supplier":  len(d.Supplier),
		"part":      len(d.Part),
		"date":      len(d.Date),
	}
	for _, table := range TableNames() {
		var buf bytes.Buffer
		if err := WriteTable(&buf, d, table); err != nil {
			t.Fatalf("WriteTable(%s): %v", table, err)
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		if len(lines) != rowCounts[table] {
			t.Errorf("%s: %d rows, want %d", table, len(lines), rowCounts[table])
		}
		// dbgen format: trailing pipe, so fields = separators.
		fields := strings.Count(lines[0], "|")
		if fields != fieldCounts[table] {
			t.Errorf("%s: %d fields, want %d (row: %s)", table, fields, fieldCounts[table], lines[0])
		}
	}
}

func TestWriteTableUnknown(t *testing.T) {
	d := MustGenerate(0.01)
	if err := WriteTable(&bytes.Buffer{}, d, "orders"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestWriteTableDateGolden(t *testing.T) {
	d := MustGenerate(0.01)
	var buf bytes.Buffer
	if err := WriteTable(&buf, d, "date"); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "19920101|January 1, 1992|") {
		t.Errorf("first date row = %q", first)
	}
}

func TestWriteTableDeterministic(t *testing.T) {
	d := MustGenerate(0.01)
	var a, b bytes.Buffer
	if err := WriteTable(&a, d, "lineorder"); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(&b, d, "lineorder"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("export not deterministic")
	}
}

package ssb

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// Round-trip test: export each table in dbgen's .tbl format, parse it back,
// and compare field by field against the generated structs. This pins the
// exact serialization (cents, 0/1 flags, ship-mode names, trailing pipe) so
// data exported for cross-validation in another SSB system stays loadable.

func splitRow(t *testing.T, line string, wantFields int) []string {
	t.Helper()
	if !strings.HasSuffix(line, "|") {
		t.Fatalf("row missing trailing pipe: %q", line)
	}
	f := strings.Split(strings.TrimSuffix(line, "|"), "|")
	if len(f) != wantFields {
		t.Fatalf("row has %d fields, want %d: %q", len(f), wantFields, line)
	}
	return f
}

func pUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("field %q: %v", s, err)
	}
	return v
}

func pBool(t *testing.T, s string) bool {
	t.Helper()
	switch s {
	case "0":
		return false
	case "1":
		return true
	}
	t.Fatalf("flag field %q, want 0 or 1", s)
	return false
}

func exportLines(t *testing.T, d *Data, table string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, d, table); err != nil {
		t.Fatalf("WriteTable(%s): %v", table, err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestRoundTripLineorder(t *testing.T) {
	d := MustGenerate(0.01)
	shipModeCode := map[string]uint8{}
	for c := uint8(0); c < 7; c++ {
		shipModeCode[ShipModeName(c)] = c
	}
	lines := exportLines(t, d, "lineorder")
	if len(lines) != d.Rows() {
		t.Fatalf("%d rows, want %d", len(lines), d.Rows())
	}
	for i, line := range lines {
		want := d.Row(i)
		f := splitRow(t, line, 17)
		got := Lineorder{
			OrderKey:      pUint(t, f[0]),
			LineNumber:    uint8(pUint(t, f[1])),
			CustKey:       uint32(pUint(t, f[2])),
			PartKey:       uint32(pUint(t, f[3])),
			SuppKey:       uint32(pUint(t, f[4])),
			OrderDate:     uint32(pUint(t, f[5])),
			OrdPriority:   uint8(pUint(t, f[6])),
			ShipPriority:  uint8(pUint(t, f[7])),
			Quantity:      uint8(pUint(t, f[8])),
			ExtendedPrice: uint32(pUint(t, f[9])),
			OrdTotalPrice: uint32(pUint(t, f[10])),
			Discount:      uint8(pUint(t, f[11])),
			Revenue:       uint32(pUint(t, f[12])),
			SupplyCost:    uint32(pUint(t, f[13])),
			Tax:           uint8(pUint(t, f[14])),
			CommitDate:    uint32(pUint(t, f[15])),
		}
		mode, ok := shipModeCode[f[16]]
		if !ok {
			t.Fatalf("row %d: unknown ship mode %q", i, f[16])
		}
		got.ShipMode = mode
		if got != want {
			t.Fatalf("row %d round-trips to %+v, want %+v", i, got, want)
		}
	}
}

func TestRoundTripDimensions(t *testing.T) {
	d := MustGenerate(0.01)

	for i, line := range exportLines(t, d, "customer") {
		w := &d.Customer[i]
		f := splitRow(t, line, 8)
		got := Customer{uint32(pUint(t, f[0])), f[1], f[2], f[3], f[4], f[5], f[6], f[7]}
		if got != *w {
			t.Fatalf("customer %d: %+v, want %+v", i, got, *w)
		}
	}
	for i, line := range exportLines(t, d, "supplier") {
		w := &d.Supplier[i]
		f := splitRow(t, line, 7)
		got := Supplier{uint32(pUint(t, f[0])), f[1], f[2], f[3], f[4], f[5], f[6]}
		if got != *w {
			t.Fatalf("supplier %d: %+v, want %+v", i, got, *w)
		}
	}
	for i, line := range exportLines(t, d, "part") {
		w := &d.Part[i]
		f := splitRow(t, line, 9)
		got := Part{uint32(pUint(t, f[0])), f[1], f[2], f[3], f[4], f[5], f[6],
			uint8(pUint(t, f[7])), f[8]}
		if got != *w {
			t.Fatalf("part %d: %+v, want %+v", i, got, *w)
		}
	}
}

func parseDateRow(t *testing.T, line string) Date {
	t.Helper()
	f := splitRow(t, line, 16)
	return Date{
		DateKey:         uint32(pUint(t, f[0])),
		Date:            f[1],
		DayOfWeek:       f[2],
		Month:           f[3],
		Year:            uint16(pUint(t, f[4])),
		YearMonthNum:    uint32(pUint(t, f[5])),
		YearMonth:       f[6],
		DayNumInWeek:    uint8(pUint(t, f[7])),
		DayNumInMonth:   uint8(pUint(t, f[8])),
		DayNumInYear:    uint16(pUint(t, f[9])),
		MonthNumInYear:  uint8(pUint(t, f[10])),
		WeekNumInYear:   uint8(pUint(t, f[11])),
		SellingSeason:   f[12],
		LastDayInWeekFl: pBool(t, f[13]),
		HolidayFl:       pBool(t, f[14]),
		WeekdayFl:       pBool(t, f[15]),
	}
}

func TestRoundTripDate(t *testing.T) {
	d := MustGenerate(0.01)
	lines := exportLines(t, d, "date")
	if len(lines) != len(d.Date) {
		t.Fatalf("%d rows, want %d", len(lines), len(d.Date))
	}
	for i, line := range lines {
		got := parseDateRow(t, line)
		if got != d.Date[i] {
			t.Fatalf("date %d: %+v, want %+v", i, got, d.Date[i])
		}
	}
}

// TestRoundTripDateEdgeRows pins the calendar's edge rows: the benchmark's
// first and last day, the leap days inside the 1992-1998 range, and each
// year boundary — the rows most likely to break if date arithmetic changes.
func TestRoundTripDateEdgeRows(t *testing.T) {
	d := MustGenerate(0.01)
	byKey := map[uint32]Date{}
	for _, line := range exportLines(t, d, "date") {
		dt := parseDateRow(t, line)
		byKey[dt.DateKey] = dt
	}

	edges := []struct {
		key   uint32
		date  string
		month string
		day   uint8 // day-of-month
	}{
		{19920101, "January 1, 1992", "January", 1},
		{19981231, "December 31, 1998", "December", 31},
		{19920229, "February 29, 1992", "February", 29}, // leap day
		{19960229, "February 29, 1996", "February", 29}, // leap day
		{19921231, "December 31, 1992", "December", 31},
		{19930101, "January 1, 1993", "January", 1},
	}
	for _, e := range edges {
		got, ok := byKey[e.key]
		if !ok {
			t.Errorf("date key %d missing from export", e.key)
			continue
		}
		if got.Date != e.date || got.Month != e.month || got.DayNumInMonth != e.day {
			t.Errorf("key %d = %q/%q/day %d, want %q/%q/day %d",
				e.key, got.Date, got.Month, got.DayNumInMonth, e.date, e.month, e.day)
		}
		if want := d.DateByKey(e.key); want == nil || got != *want {
			t.Errorf("key %d export disagrees with DateByKey: %+v vs %v", e.key, got, want)
		}
	}
	// Non-leap years must not export a Feb 29.
	for _, key := range []uint32{19930229, 19940229, 19950229, 19970229, 19980229} {
		if _, ok := byKey[key]; ok {
			t.Errorf("non-leap-year key %d present in export", key)
		}
	}
	// 1992-1998 inclusive: five 365-day years plus the 1992 and 1996 leap
	// years = 2557 days.
	if len(byKey) != 2557 {
		t.Errorf("calendar has %d distinct days, want 2557", len(byKey))
	}
}

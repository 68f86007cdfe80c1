package ssb

import "testing"

// TestGroupAppendMatchesGroupBy pins the engines' allocation-free grouping
// fast path: for every query and every row that reaches aggregation,
// GroupAppend must produce exactly GroupBy's bytes — the fast path may never
// drift from the string the Reference oracle groups on.
func TestGroupAppendMatchesGroupBy(t *testing.T) {
	d := MustGenerate(0.01)
	for _, q := range Queries() {
		if q.GroupBy == nil {
			if q.GroupAppend != nil {
				t.Errorf("%s: GroupAppend without GroupBy", q.ID)
			}
			continue
		}
		if q.GroupAppend == nil {
			t.Errorf("%s: grouped query missing the GroupAppend fast path", q.ID)
			continue
		}
		checked := 0
		var buf []byte
		for i := range d.Rows() {
			row := d.Row(i)
			lo := &row
			date := d.DateByKey(lo.OrderDate)
			var c *Customer
			var s *Supplier
			var p *Part
			if q.NeedsCust {
				c = d.CustomerByKey(lo.CustKey)
			}
			if q.NeedsSupp {
				s = d.SupplierByKey(lo.SuppKey)
			}
			if q.NeedsPart {
				p = d.PartByKey(lo.PartKey)
			}
			if date == nil || (q.NeedsCust && c == nil) || (q.NeedsSupp && s == nil) || (q.NeedsPart && p == nil) {
				continue
			}
			want := q.GroupBy(lo, date, c, s, p)
			buf = q.GroupAppend(buf[:0], lo, date, c, s, p)
			if string(buf) != want {
				t.Fatalf("%s row %d: GroupAppend = %q, GroupBy = %q", q.ID, i, buf, want)
			}
			checked++
			if checked >= 2000 {
				break
			}
		}
		if checked == 0 {
			t.Errorf("%s: no rows checked", q.ID)
		}
	}
}

// TestGrouperMatchesDirectAggregation pins the Grouper against the plain
// map-of-sums idiom the Reference executor uses.
func TestGrouperMatchesDirectAggregation(t *testing.T) {
	d := MustGenerate(0.01)
	for _, q := range Queries() {
		want := Reference(d, q)
		g := NewGrouper()
		for i := range d.Rows() {
			row := d.Row(i)
			lo := &row
			if q.LOFilter != nil && !q.LOFilter(lo) {
				continue
			}
			date := d.DateByKey(lo.OrderDate)
			if q.DateFilter != nil && !q.DateFilter(date) {
				continue
			}
			var c *Customer
			if q.NeedsCust {
				c = d.CustomerByKey(lo.CustKey)
				if q.CustFilter != nil && !q.CustFilter(c) {
					continue
				}
			}
			var s *Supplier
			if q.NeedsSupp {
				s = d.SupplierByKey(lo.SuppKey)
				if q.SuppFilter != nil && !q.SuppFilter(s) {
					continue
				}
			}
			var p *Part
			if q.NeedsPart {
				p = d.PartByKey(lo.PartKey)
				if q.PartFilter != nil && !q.PartFilter(p) {
					continue
				}
			}
			g.Add(&q, lo, date, c, s, p, q.Aggregate(lo))
		}
		got := Result{}
		g.Emit(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", q.ID, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s group %q: %d, want %d", q.ID, k, got[k], v)
			}
		}
	}
}

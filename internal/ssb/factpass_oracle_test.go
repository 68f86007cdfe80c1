package ssb

import (
	"math/bits"
	"reflect"
	"testing"
)

// TestFactRowMatchesRow: the fact pass's pruned row kernel fills every
// column a query may read exactly as Row does, and returns the index of
// the row's order date.
func TestFactRowMatchesRow(t *testing.T) {
	for _, c := range []struct {
		sf     float64
		stride int
	}{{0.01, 1}, {0.05, 97}} {
		d := MustGenerate(c.sf)
		var got Lineorder
		for i := 0; i < d.Rows(); i += c.stride {
			di := d.factRow(i, &got)
			want := d.Row(i)
			if got.CustKey != want.CustKey || got.PartKey != want.PartKey || got.SuppKey != want.SuppKey ||
				got.OrderDate != want.OrderDate || got.Quantity != want.Quantity ||
				got.ExtendedPrice != want.ExtendedPrice || got.Discount != want.Discount ||
				got.Revenue != want.Revenue || got.SupplyCost != want.SupplyCost {
				t.Fatalf("sf %g row %d: factRow %+v, Row %+v", c.sf, i, got, want)
			}
			if d.Date[di].DateKey != want.OrderDate {
				t.Fatalf("sf %g row %d: date index %d names %d, order date %d",
					c.sf, i, di, d.Date[di].DateKey, want.OrderDate)
			}
		}
	}
}

// perQueryPass is the fact pass as a loop over the queries of every full
// row: each query's 4-bit pass index (bit k: passes the dimension of kind
// k) picks its histogram entry and, through a 16-entry table per query,
// the dimensions the row probes. It is the oracle the class-counted pass
// is checked against.
func perQueryPass(d *Data, qs []Query) []*Facts {
	masks := passMasks{
		make([]uint16, len(d.Date)), make([]uint16, len(d.Customer)+1),
		make([]uint16, len(d.Supplier)+1), make([]uint16, len(d.Part)+1),
	}
	facts := make([]*Facts, len(qs))
	var at, probes [][16]uint8
	hist := make([][16]int64, len(qs))
	groups := make([]*Grouper, len(qs))
	for j := range qs {
		f := &Facts{Dims: d.joinedDims(&qs[j], 1<<j, &masks), Result: Result{}}
		facts[j], groups[j] = f, NewGrouper()
		dateBit := uint8(0)
		for x := range f.Dims {
			if f.Dims[x].kind == dimDate {
				dateBit = 1 << x
			} else {
				f.Dims[x].ProbeFreq = make([]int64, len(masks[f.Dims[x].kind]))
			}
		}
		var a, p [16]uint8
		for idx := range a {
			for x, dim := range f.Dims {
				a[idx] |= uint8(idx>>dim.kind&1) << x
			}
			for x, dim := range f.Dims {
				need := dateBit | (1<<x - 1)
				if dim.kind != dimDate && a[idx]&need == need {
					p[idx] |= 1 << x
				}
			}
		}
		at, probes = append(at, a), append(probes, p)
	}
	for i := range d.Rows() {
		row := d.Row(i)
		date := d.DateByKey(row.OrderDate)
		di := int(d.dateIdx[DateSlot(row.OrderDate)])
		keys := [4]int{di, int(row.CustKey), int(row.SuppKey), int(row.PartKey)}
		for j := range qs {
			q := &qs[j]
			if q.LOFilter != nil && !q.LOFilter(&row) {
				continue
			}
			idx := 0
			for k := range keys {
				idx |= int(masks[k][keys[k]]>>j&1) << k
			}
			hist[j][idx]++
			f := facts[j]
			for pr := probes[j][idx]; pr != 0; pr &= pr - 1 {
				x := bits.TrailingZeros8(pr)
				f.Dims[x].ProbeFreq[keys[f.Dims[x].kind]]++
			}
			if idx == 15 {
				groups[j].Add(q, &row, date, d.CustomerByKey(row.CustKey),
					d.SupplierByKey(row.SuppKey), d.PartByKey(row.PartKey), q.Aggregate(&row))
			}
		}
	}
	for j, f := range facts {
		f.hist = make([]int64, 1<<len(f.Dims))
		for idx, c := range hist[j] {
			f.hist[at[j][idx]] += c
			f.ScanSurvivors += c
		}
		f.Qualifying = f.hist[len(f.hist)-1]
		groups[j].Emit(f.Result)
	}
	return facts
}

// TestFactPassMatchesPerQueryOracle: the class-counted pass reports the
// per-query loop's histogram, probe frequencies, Passing counts and
// results at every worker count, for the standard set and for a query of
// its own.
func TestFactPassMatchesPerQueryOracle(t *testing.T) {
	d := factsData()
	wide, err := QueryByID("Q4.3")
	if err != nil {
		t.Fatal(err)
	}
	wide.ID = "Q4.3-wide"
	wide.SuppFilter = func(s *Supplier) bool { return s.Region == "AMERICA" }
	wide.LOFilter = func(lo *Lineorder) bool { return lo.Quantity < 25 }
	for _, qs := range [][]Query{Queries(), {wide}} {
		want := perQueryPass(d, qs)
		for _, w := range []int{1, 2, 7} {
			got := d.factPass(qs, w)
			for j, q := range qs {
				g, o := got[j], want[j]
				if !reflect.DeepEqual(g.hist, o.hist) {
					t.Errorf("%s, %d workers: hist %v, oracle %v", q.ID, w, g.hist, o.hist)
				}
				for set := range uint(1) << len(o.Dims) {
					if g.Passing(set) != o.Passing(set) {
						t.Errorf("%s, %d workers: Passing(%04b) = %d, oracle %d", q.ID, w, set, g.Passing(set), o.Passing(set))
					}
				}
				for x := range o.Dims {
					if !reflect.DeepEqual(g.Dims[x].ProbeFreq, o.Dims[x].ProbeFreq) {
						t.Errorf("%s, %d workers: %s probe frequencies differ from the oracle's", q.ID, w, o.Dims[x].Name)
					}
				}
				if !g.Result.Equal(o.Result) {
					t.Errorf("%s, %d workers: result %v, oracle %v", q.ID, w, g.Result, o.Result)
				}
				if !reflect.DeepEqual(g, o) {
					t.Errorf("%s, %d workers: facts differ from the oracle's", q.ID, w)
				}
			}
		}
	}
}

// TestCellTableBoundedByFilters: the standard queries' cell table follows
// from their filters, not from the scale factor. The smaller data sets'
// keys are a prefix of sf 1's, so their classes are a subset of sf 1's,
// and sf 1 needs 7 date, 5 customer, 6 supplier and 6 part classes.
func TestCellTableBoundedByFilters(t *testing.T) {
	qs := Queries()
	table := func(sf float64) *cellTable {
		d := MustGenerate(sf)
		masks := passMasks{
			make([]uint16, len(d.Date)), make([]uint16, len(d.Customer)+1),
			make([]uint16, len(d.Supplier)+1), make([]uint16, len(d.Part)+1),
		}
		filtered := 0
		for j := range qs {
			d.joinedDims(&qs[j], 1<<j, &masks)
			if qs[j].LOFilter != nil {
				filtered++
			}
		}
		return newCellTable(&masks, filtered)
	}
	big := table(1)
	if got, want := [4]int{len(big.classes[0]), len(big.classes[1]), len(big.classes[2]), len(big.classes[3])},
		[4]int{7, 5, 6, 6}; got != want || big.size != 7*5*6*6*8 {
		t.Errorf("sf 1: classes %v and %d cells, want %v and %d", got, big.size, want, 7*5*6*6*8)
	}
	for _, sf := range []float64{0.01, 0.05} {
		small := table(sf)
		if small.size > big.size {
			t.Errorf("sf %g: %d cells, more than sf 1's %d", sf, small.size, big.size)
		}
		for k := range small.classes {
			for _, m := range small.classes[k] {
				found := false
				for _, b := range big.classes[k] {
					found = found || b == m
				}
				if !found {
					t.Errorf("sf %g: kind %d class %016b is not a class at sf 1", sf, k, m)
				}
			}
		}
	}
}

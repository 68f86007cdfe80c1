package ssb

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// factsData is the data set the fact-pass tests share. It is generated on
// first use: package-level initializers run before the generator's init.
var factsData = sync.OnceValue(func() *Data { return MustGenerate(0.02) })

// TestFactsMatchReference: the shared pass's answer is the reference
// executor's on every query, and its qualifying count is the rows that
// answer aggregates.
func TestFactsMatchReference(t *testing.T) {
	d := factsData()
	for _, q := range Queries() {
		f := d.Facts(q)
		if want := Reference(d, q); !f.Result.Equal(want) {
			t.Errorf("%s: facts result differs from Reference\n got: %v\nwant: %v", q.ID, f.Result, want)
		}
		if f.Qualifying > f.ScanSurvivors {
			t.Errorf("%s: qualifying %d, scan survivors %d", q.ID, f.Qualifying, f.ScanSurvivors)
		}
		if f.Qualifying != f.Passing(uint(1)<<len(f.Dims)-1) {
			t.Errorf("%s: qualifying %d != rows passing every dimension %d",
				q.ID, f.Qualifying, f.Passing(uint(1)<<len(f.Dims)-1))
		}
	}
}

// TestFactsWorkerCountInvariant: the fused pass's worker split (including
// counts that do not divide the rows evenly) changes nothing it reports for
// any of the 13 queries it serves at once.
func TestFactsWorkerCountInvariant(t *testing.T) {
	d := factsData()
	qs := Queries()
	one := d.factPass(qs, 1)
	for _, w := range []int{2, 7} {
		got := d.factPass(qs, w)
		for j, q := range qs {
			if !reflect.DeepEqual(got[j], one[j]) {
				t.Errorf("%s: facts with %d workers differ from 1 worker", q.ID, w)
			}
		}
	}
}

// TestFusedPassMatchesSoloPasses: a query's facts do not depend on which
// queries share its pass.
func TestFusedPassMatchesSoloPasses(t *testing.T) {
	d := factsData()
	qs := Queries()
	fused := d.factPass(qs, 2)
	for j, q := range qs {
		if solo := d.factPass([]Query{q}, 2)[0]; !reflect.DeepEqual(solo, fused[j]) {
			t.Errorf("%s: facts from its own pass differ from the fused pass's", q.ID)
		}
	}
}

// TestNonStandardQueryFacts: a query outside the standard 13 gets a pass of
// its own, memoized under its ID, whose answer is the reference executor's.
func TestNonStandardQueryFacts(t *testing.T) {
	d := MustGenerate(0.01)
	q, err := QueryByID("Q4.3")
	if err != nil {
		t.Fatal(err)
	}
	q.ID = "Q4.3-wide"
	q.SuppFilter = func(s *Supplier) bool { return s.Region == "AMERICA" }
	q.LOFilter = func(lo *Lineorder) bool { return lo.Quantity < 25 }
	want := Reference(d, q)
	if len(want) < 2 {
		t.Fatalf("oracle has %d groups; the query should select several", len(want))
	}
	for i := 0; i < 2; i++ {
		if got := d.Facts(q).Result; !got.Equal(want) {
			t.Errorf("non-standard facts differ from Reference\n got: %v\nwant: %v", got, want)
		}
	}
	std, _ := QueryByID("Q4.3")
	if d.Facts(std).Result.Equal(want) {
		t.Error("the standard Q4.3 shares the non-standard query's answer")
	}
	if got := d.FactPasses(); got != 2 {
		t.Errorf("fact passes = %d, want 2 (one non-standard, one standard)", got)
	}
}

// TestFactsLiveHeap: a data set stores no fact rows, so an sf 0.2 data set
// (1.2 million rows) with every query's facts memoized stays small.
func TestFactsLiveHeap(t *testing.T) {
	const limit = 20 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := MustGenerate(0.2)
	for _, q := range Queries() {
		d.Facts(q)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(d)
	if live > limit {
		t.Errorf("sf 0.2 data set with all facts holds %.1f MiB live, want under %d MiB",
			float64(live)/(1<<20), limit>>20)
	}
	t.Logf("sf 0.2 data set with all facts: %.1f MiB live", float64(live)/(1<<20))
}

// TestFactsMatchRowByRowOracle checks the histogram and the probe
// frequencies against a direct evaluation of every row: for each set of
// joined dimensions, Passing equals the rows whose foreign keys pass all of
// them, and each ProbeFreq equals the keys a date-pushdown, early-exit
// probe loop in Dims order looks up.
func TestFactsMatchRowByRowOracle(t *testing.T) {
	d := factsData()
	for _, q := range Queries() {
		f := d.Facts(q)
		passes := func(name string, lo *Lineorder) bool {
			switch name {
			case "date":
				return q.DateFilter == nil || q.DateFilter(d.DateByKey(lo.OrderDate))
			case "customer":
				return q.CustFilter == nil || q.CustFilter(d.CustomerByKey(lo.CustKey))
			case "supplier":
				return q.SuppFilter == nil || q.SuppFilter(d.SupplierByKey(lo.SuppKey))
			default:
				return q.PartFilter == nil || q.PartFilter(d.PartByKey(lo.PartKey))
			}
		}
		key := func(name string, lo *Lineorder) uint32 {
			switch name {
			case "customer":
				return lo.CustKey
			case "supplier":
				return lo.SuppKey
			default:
				return lo.PartKey
			}
		}
		hist := make([]int64, 1<<len(f.Dims))
		freq := make([]map[uint32]int64, len(f.Dims))
		for j := range freq {
			freq[j] = map[uint32]int64{}
		}
		var scanned int64
		for i := range d.Rows() {
			row := d.Row(i)
			lo := &row
			if q.LOFilter != nil && !q.LOFilter(lo) {
				continue
			}
			scanned++
			m := 0
			for j, dim := range f.Dims {
				if passes(dim.Name, lo) {
					m |= 1 << j
				}
			}
			hist[m]++
			if q.DateFilter != nil && !q.DateFilter(d.DateByKey(lo.OrderDate)) {
				continue
			}
			for j, dim := range f.Dims {
				if dim.Name == "date" {
					continue
				}
				freq[j][key(dim.Name, lo)]++
				if m&(1<<j) == 0 {
					break
				}
			}
		}
		if scanned != f.ScanSurvivors {
			t.Errorf("%s: scan survivors %d, oracle %d", q.ID, f.ScanSurvivors, scanned)
		}
		for set := range hist {
			var want int64
			for m, c := range hist {
				if m&set == set {
					want += c
				}
			}
			if got := f.Passing(uint(set)); got != want {
				t.Errorf("%s: Passing(%04b) = %d, oracle %d", q.ID, set, got, want)
			}
		}
		for j, dim := range f.Dims {
			if dim.Name == "date" {
				if dim.ProbeFreq != nil {
					t.Errorf("%s: date has probe frequencies", q.ID)
				}
				continue
			}
			var total, want int64
			for k, n := range dim.ProbeFreq {
				total += n
				if n != freq[j][uint32(k)] {
					t.Errorf("%s %s key %d: probe frequency %d, oracle %d", q.ID, dim.Name, k, n, freq[j][uint32(k)])
					break
				}
			}
			for _, n := range freq[j] {
				want += n
			}
			if total != want {
				t.Errorf("%s %s: %d probes, oracle %d", q.ID, dim.Name, total, want)
			}
		}
		for j := 1; j < len(f.Dims); j++ {
			if f.Dims[j].Sel < f.Dims[j-1].Sel {
				t.Errorf("%s: dims not in ascending selectivity: %s %.4f before %s %.4f",
					q.ID, f.Dims[j-1].Name, f.Dims[j-1].Sel, f.Dims[j].Name, f.Dims[j].Sel)
			}
		}
	}
}

// TestFactsMemoized: a data set runs one fact pass for all 13 queries,
// however often their facts are asked for.
func TestFactsMemoized(t *testing.T) {
	d := MustGenerate(0.005)
	for i := 0; i < 3; i++ {
		for _, q := range Queries() {
			d.Facts(q)
		}
	}
	if got := d.FactPasses(); got != 1 {
		t.Errorf("fact passes = %d, want 1", got)
	}
}

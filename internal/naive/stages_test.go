package naive

import (
	"sort"
	"testing"

	"repro/internal/ssb"
)

// stagedExecution is the engine's former row loop, kept as an oracle: it
// builds each dimension's key set from the query's filters, orders the
// joins by selectivity, and walks every scan survivor through the join
// stages until its first miss, counting each stage's survivors and
// aggregating the rows that pass them all.
func stagedExecution(d *ssb.Data, q ssb.Query) ([]joinStage, ssb.Result) {
	type dimSet struct {
		name    string
		keep    map[uint32]bool
		entries int
		sel     float64
		key     func(*ssb.Lineorder) uint32
	}
	var dims []dimSet
	add := func(name string, rows int, key func(*ssb.Lineorder) uint32, pass func(i int) (uint32, bool)) {
		keep := map[uint32]bool{}
		for i := 0; i < rows; i++ {
			if k, ok := pass(i); ok {
				keep[k] = true
			}
		}
		dims = append(dims, dimSet{name, keep, len(keep), float64(len(keep)) / float64(rows), key})
	}
	if q.DateFilter != nil || q.GroupBy != nil {
		add("date", len(d.Date), func(lo *ssb.Lineorder) uint32 { return lo.OrderDate }, func(i int) (uint32, bool) {
			return d.Date[i].DateKey, q.DateFilter == nil || q.DateFilter(&d.Date[i])
		})
	}
	if q.NeedsCust {
		add("customer", len(d.Customer), func(lo *ssb.Lineorder) uint32 { return lo.CustKey }, func(i int) (uint32, bool) {
			return d.Customer[i].CustKey, q.CustFilter == nil || q.CustFilter(&d.Customer[i])
		})
	}
	if q.NeedsSupp {
		add("supplier", len(d.Supplier), func(lo *ssb.Lineorder) uint32 { return lo.SuppKey }, func(i int) (uint32, bool) {
			return d.Supplier[i].SuppKey, q.SuppFilter == nil || q.SuppFilter(&d.Supplier[i])
		})
	}
	if q.NeedsPart {
		add("part", len(d.Part), func(lo *ssb.Lineorder) uint32 { return lo.PartKey }, func(i int) (uint32, bool) {
			return d.Part[i].PartKey, q.PartFilter == nil || q.PartFilter(&d.Part[i])
		})
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i].sel < dims[j].sel })

	rows := make([]ssb.Lineorder, d.Rows())
	for i := range rows {
		rows[i] = d.Row(i)
	}
	var survivors []int
	for i := range rows {
		if q.LOFilter == nil || q.LOFilter(&rows[i]) {
			survivors = append(survivors, i)
		}
	}
	stages := make([]joinStage, len(dims))
	for si, ds := range dims {
		stages[si] = joinStage{dim: ds.name, mapEntries: ds.entries,
			probesIn: int64(len(survivors)), first: si == 0}
		var next []int
		for _, i := range survivors {
			if ds.keep[ds.key(&rows[i])] {
				next = append(next, i)
			}
		}
		stages[si].survivors = int64(len(next))
		survivors = next
	}
	res := ssb.Result{}
	for _, i := range survivors {
		lo := &rows[i]
		key := ""
		if q.GroupBy != nil {
			key = q.GroupBy(lo, d.DateByKey(lo.OrderDate), d.CustomerByKey(lo.CustKey),
				d.SupplierByKey(lo.SuppKey), d.PartByKey(lo.PartKey))
		}
		res[key] += q.Aggregate(lo)
	}
	return stages, res
}

// TestStagesMatchStagedExecution: the stage cardinalities the engine reads
// off the shared facts are exactly those of materializing every join
// stage, and so is the answer.
func TestStagesMatchStagedExecution(t *testing.T) {
	for _, q := range ssb.Queries() {
		f := testData.Facts(q)
		want, wantRes := stagedExecution(testData, q)
		got := stagesOf(f)
		if len(got) != len(want) {
			t.Fatalf("%s: %d stages, oracle %d", q.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s stage %d: %+v, oracle %+v", q.ID, i, got[i], want[i])
			}
		}
		final := f.ScanSurvivors
		if len(want) > 0 {
			final = want[len(want)-1].survivors
		}
		if f.Qualifying != final {
			t.Errorf("%s: qualifying %d, oracle %d", q.ID, f.Qualifying, final)
		}
		if !f.Result.Equal(wantRes) {
			t.Errorf("%s: result differs from the staged execution", q.ID)
		}
	}
}

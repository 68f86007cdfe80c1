package ssb

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// Facts is everything about one query's execution over a data set that
// does not depend on the engine running it. The paper's two SSB engines
// return the same answers and differ only in layout and access pattern, so
// one fused pass over the fact rows computes every query's facts once per
// data set and each engine only turns them into simulated traffic.
type Facts struct {
	// Dims are the joined dimensions in ascending selectivity; ties keep
	// the order date, customer, supplier, part. The date dimension is
	// joined when the query filters or groups on it, the others when the
	// query needs them.
	Dims []DimFacts
	// ScanSurvivors counts the fact rows passing the fact-local predicates.
	ScanSurvivors int64
	// Qualifying counts the fact rows passing every predicate.
	Qualifying int64
	// Result is the query's exact answer.
	Result Result

	// hist[m] counts the scan survivors that pass exactly the dimensions
	// whose Dims indices are the set bits of m.
	hist []int64
}

// DimFacts is one joined dimension's filter outcome and probe traffic.
type DimFacts struct {
	Name    string  // "date", "customer", "supplier" or "part"
	Entries int     // dimension rows passing the filter
	Sel     float64 // Entries / dimension rows
	// ProbeFreq[k], for customer, supplier and part, counts the fact rows
	// that probe key k when the date predicate is evaluated in the scan
	// and the other dimensions are probed in Dims order, each row stopping
	// at its first miss: the PMEM-aware engine's plan. Nil for date.
	ProbeFreq []int64

	kind dimKind
}

// dimKind says which fact column joins a dimension; it also numbers the
// bits of a row's pass index (see factPass).
type dimKind uint8

const (
	dimDate dimKind = iota
	dimCust
	dimSupp
	dimPart
)

// Passing returns how many scan survivors pass every dimension in set, a
// bit mask over Dims indices. The stage cardinalities of any join order
// follow: the rows leaving stage i of the order o are
// Passing(bits of o[0..i]).
func (f *Facts) Passing(set uint) int64 {
	var n int64
	for m, c := range f.hist {
		if uint(m)&set == set {
			n += c
		}
	}
	return n
}

// standardQueries is Queries(), built once for the shared fact pass.
var standardQueries = sync.OnceValue(Queries)

// Facts returns q's facts on d. The first call for any of the 13 standard
// queries runs one row-parallel pass that regenerates each fact row once
// and computes all 13 queries' facts; any other query gets a pass of its
// own, memoized under its ID. Later calls share the result, which callers
// must not modify.
func (d *Data) Facts(q Query) *Facts {
	qs := standardQueries()
	for j := range qs {
		if qs[j].ID == q.ID {
			return d.Memo("ssb/facts", func() any {
				return d.factPass(qs, runtime.GOMAXPROCS(0))
			}).([]*Facts)[j]
		}
	}
	return d.Memo("ssb/facts/"+q.ID, func() any {
		return d.factPass([]Query{q}, runtime.GOMAXPROCS(0))[0]
	}).(*Facts)
}

// FactPasses reports how many fact passes have run on d.
func (d *Data) FactPasses() int64 { return d.factPasses.Load() }

// maxFused is the most queries one fact pass serves: a dimension key's
// mask holds one bit per query.
const maxFused = 16

// passMasks[k][key] has bit j set when key passes query j's filter on the
// dimension of kind k, or when query j does not join that dimension. Date
// keys are row indices in Data.Date; the others are the dense 1-based keys.
type passMasks [4][]uint16

// queryPlan maps a row's pass index for one query, whose bit k is set when
// the row passes the dimension of kind k, to what the row contributes.
type queryPlan struct {
	// at is the pass index's position in Facts.hist, whose bits follow
	// Dims order.
	at [16]uint8
	// probes has bit k set when the row probes the dimension of kind k:
	// it passed the date and every dimension before k in Dims order.
	probes [16]uint8
}

// factPass regenerates every fact row once, on the given number of
// goroutines, and computes the facts of each query in qs (at most
// maxFused). Each worker keeps private counters and group sums per query
// over a contiguous row range; integer sums commute, so the merged facts
// are the same for every worker count.
func (d *Data) factPass(qs []Query, workers int) []*Facts {
	if len(qs) > maxFused {
		panic(fmt.Sprintf("ssb: %d queries in one fact pass, at most %d", len(qs), maxFused))
	}
	d.factPasses.Add(1)
	masks := passMasks{
		make([]uint16, len(d.Date)), make([]uint16, len(d.Customer)+1),
		make([]uint16, len(d.Supplier)+1), make([]uint16, len(d.Part)+1),
	}
	facts := make([]*Facts, len(qs))
	plans := make([]queryPlan, len(qs))
	var filtered []int // the queries with fact-local predicates
	for j := range qs {
		facts[j] = &Facts{Dims: d.joinedDims(&qs[j], 1<<j, &masks), Result: Result{}}
		plans[j] = planOf(facts[j].Dims)
		if qs[j].LOFilter != nil {
			filtered = append(filtered, j)
		}
	}

	type partial struct {
		hist   [][16]int64
		freq   [][4][]int64 // [query][kind]; nil where the query never probes
		groups []*Grouper
	}
	parts := make([]partial, max(workers, 1))
	parallelRange(d.rows, workers, func(w, lo, hi int) {
		p := partial{hist: make([][16]int64, len(qs)), freq: make([][4][]int64, len(qs)),
			groups: make([]*Grouper, len(qs))}
		for j := range qs {
			p.groups[j] = NewGrouper()
			for _, dim := range facts[j].Dims {
				if dim.kind != dimDate {
					p.freq[j][dim.kind] = make([]int64, len(masks[dim.kind]))
				}
			}
		}
		all := uint16(1)<<len(qs) - 1
		row := new(Lineorder) // the filters take pointers; one row per worker
		for i := lo; i < hi; i++ {
			var di int
			*row, di = d.row(i)
			keys := [4]int{di, int(row.CustKey), int(row.SuppKey), int(row.PartKey)}
			var m [4]uint16
			for k := range m {
				m[k] = masks[k][keys[k]]
			}
			live := all
			for _, j := range filtered {
				if !qs[j].LOFilter(row) {
					live &^= 1 << j
				}
			}
			for j := range qs {
				if live>>j&1 == 0 {
					continue
				}
				idx := m[0]>>j&1 | m[1]>>j&1<<1 | m[2]>>j&1<<2 | m[3]>>j&1<<3
				p.hist[j][idx]++
				for pr := plans[j].probes[idx]; pr != 0; pr &= pr - 1 {
					k := bits.TrailingZeros8(pr)
					p.freq[j][k][keys[k]]++
				}
				if idx == 15 {
					q := &qs[j]
					p.groups[j].Add(q, row, &d.Date[di], d.CustomerByKey(row.CustKey),
						d.SupplierByKey(row.SuppKey), d.PartByKey(row.PartKey), q.Aggregate(row))
				}
			}
		}
		parts[w] = p
	})

	for j, f := range facts {
		f.hist = make([]int64, 1<<len(f.Dims))
		for x := range f.Dims {
			if k := f.Dims[x].kind; k != dimDate {
				f.Dims[x].ProbeFreq = make([]int64, len(masks[k]))
			}
		}
		for _, p := range parts {
			if p.groups == nil {
				continue
			}
			for idx, c := range p.hist[j] {
				f.hist[plans[j].at[idx]] += c
				f.ScanSurvivors += c
			}
			for x := range f.Dims {
				for k, c := range p.freq[j][f.Dims[x].kind] {
					f.Dims[x].ProbeFreq[k] += c
				}
			}
			p.groups[j].Emit(f.Result)
		}
		f.Qualifying = f.hist[len(f.hist)-1]
	}
	return facts
}

// planOf builds a query's pass-index plan from its joined dimensions.
// Every bit of a dimension the query does not join is set in every row's
// pass index (see passMasks), so index 15 is a row passing every join.
func planOf(dims []DimFacts) queryPlan {
	var p queryPlan
	// A row probes a non-date dimension x when its Dims-order index holds
	// the date bit and the bits of every dimension before x.
	dateBit := uint8(0)
	for x := range dims {
		if dims[x].kind == dimDate {
			dateBit = 1 << x
		}
	}
	for idx := range p.at {
		for x, dim := range dims {
			p.at[idx] |= uint8(idx>>dim.kind&1) << x
		}
		for x, dim := range dims {
			need := dateBit | (1<<x - 1)
			if dim.kind != dimDate && p.at[idx]&need == need {
				p.probes[idx] |= 1 << dim.kind
			}
		}
	}
	return p
}

// joinedDims evaluates q's dimension filters, sets bit in masks for the
// keys that pass them (for every key of a dimension q does not join), and
// orders the joined dimensions by ascending selectivity.
func (d *Data) joinedDims(q *Query, bit uint16, masks *passMasks) []DimFacts {
	var dims []DimFacts
	add := func(name string, kind dimKind, joined bool, rows int, pass func(i int) (key int, ok bool)) {
		mask := masks[kind]
		if !joined {
			for k := range mask {
				mask[k] |= bit
			}
			return
		}
		n := 0
		for i := 0; i < rows; i++ {
			if k, ok := pass(i); ok {
				mask[k] |= bit
				n++
			}
		}
		dims = append(dims, DimFacts{Name: name, Entries: n, Sel: float64(n) / float64(rows), kind: kind})
	}
	add("date", dimDate, q.DateFilter != nil || q.GroupBy != nil, len(d.Date), func(i int) (int, bool) {
		return i, q.DateFilter == nil || q.DateFilter(&d.Date[i])
	})
	add("customer", dimCust, q.NeedsCust, len(d.Customer), func(i int) (int, bool) {
		r := &d.Customer[i]
		return int(r.CustKey), q.CustFilter == nil || q.CustFilter(r)
	})
	add("supplier", dimSupp, q.NeedsSupp, len(d.Supplier), func(i int) (int, bool) {
		r := &d.Supplier[i]
		return int(r.SuppKey), q.SuppFilter == nil || q.SuppFilter(r)
	})
	add("part", dimPart, q.NeedsPart, len(d.Part), func(i int) (int, bool) {
		r := &d.Part[i]
		return int(r.PartKey), q.PartFilter == nil || q.PartFilter(r)
	})
	sort.SliceStable(dims, func(i, j int) bool { return dims[i].Sel < dims[j].Sel })
	return dims
}

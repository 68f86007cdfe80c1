package ssb

import (
	"runtime"
	"sort"
)

// Facts is everything about one query's execution over a data set that
// does not depend on the engine running it. The paper's two SSB engines
// return the same answers and differ only in layout and access pattern, so
// one fused pass over the fact rows computes these facts once per (data
// set, query) and each engine only turns them into simulated traffic.
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
	// pass[k] is 1 when key k passes the dimension's filter, else 0: k is
	// the dense 1-based key for customer, supplier and part, the DateSlot
	// for date. Bytes, not bools, so the row loop ORs them into its mask
	// without branching on the data.
	pass []uint8
}

// dimKind says which fact column joins a dimension.
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

// Facts returns q's facts on d. The first call runs one row-parallel pass
// over the fact table; later calls share its result, which callers must
// not modify.
func (d *Data) Facts(q Query) *Facts {
	return d.Memo("ssb/facts/"+q.ID, func() any {
		return d.factsWith(q, runtime.GOMAXPROCS(0))
	}).(*Facts)
}

// FactPasses reports how many fact passes have run on d.
func (d *Data) FactPasses() int64 { return d.factPasses.Load() }

// factsWith runs the fact pass on the given number of goroutines. Each
// worker keeps private counters and group sums over a contiguous row
// range; integer sums commute, so the merged facts are the same for every
// worker count.
func (d *Data) factsWith(q Query, workers int) *Facts {
	d.factPasses.Add(1)
	f := &Facts{Dims: d.joinedDims(q), Result: Result{}}
	dims := f.Dims
	full := uint(1)<<len(dims) - 1
	// A row probes a non-date dimension j when its mask holds need[j]:
	// the date bit and the bits of every dimension before j.
	dateBit := uint(0)
	for j := range dims {
		if dims[j].kind == dimDate {
			dateBit = 1 << j
		}
	}
	var need [4]uint
	for j := range dims {
		need[j] = dateBit | (1<<j - 1)
	}

	type partial struct {
		hist   []int64
		freq   [][]int64
		groups *Grouper
	}
	parts := make([]partial, max(workers, 1))
	parallelRange(len(d.Lineorder), workers, func(w, lo, hi int) {
		p := partial{hist: make([]int64, full+1), freq: make([][]int64, len(dims)), groups: NewGrouper()}
		for j := range dims {
			if dims[j].kind != dimDate {
				p.freq[j] = make([]int64, len(dims[j].pass))
			}
		}
		var keys [4]int
		for i := lo; i < hi; i++ {
			row := &d.Lineorder[i]
			if q.LOFilter != nil && !q.LOFilter(row) {
				continue
			}
			m := uint(0)
			for j := range dims {
				k := d.joinKey(dims[j].kind, i)
				keys[j] = k
				if pass := dims[j].pass; uint(k) < uint(len(pass)) {
					m |= uint(pass[k]) << j
				}
			}
			p.hist[m]++
			for j, freq := range p.freq {
				if k := keys[j]; freq != nil && uint(k) < uint(len(freq)) {
					// (miss-1)>>63 is 1 exactly when miss is 0: the row
					// passed the date and every join before this probe.
					miss := m&need[j] ^ need[j]
					freq[k] += int64((miss - 1) >> 63)
				}
			}
			if m == full {
				p.groups.Add(&q, row, d.orderDate(i), d.CustomerByKey(row.CustKey),
					d.SupplierByKey(row.SuppKey), d.PartByKey(row.PartKey), q.Aggregate(row))
			}
		}
		parts[w] = p
	})

	for j := range dims {
		if dims[j].kind != dimDate {
			dims[j].ProbeFreq = make([]int64, len(dims[j].pass))
		}
	}
	f.hist = make([]int64, full+1)
	for _, p := range parts {
		if p.groups == nil {
			continue
		}
		for m, c := range p.hist {
			f.hist[m] += c
			f.ScanSurvivors += c
		}
		for j, freq := range p.freq {
			for k, c := range freq {
				dims[j].ProbeFreq[k] += c
			}
		}
		p.groups.Emit(f.Result)
	}
	f.Qualifying = f.hist[full]
	return f
}

// joinedDims evaluates q's dimension filters and orders the joined
// dimensions by ascending selectivity.
func (d *Data) joinedDims(q Query) []DimFacts {
	var dims []DimFacts
	add := func(name string, kind dimKind, rows, domain int, pass func(i int) (key int, ok bool)) {
		keep := make([]uint8, domain)
		n := 0
		for i := 0; i < rows; i++ {
			if k, ok := pass(i); ok {
				keep[k] = 1
				n++
			}
		}
		dims = append(dims, DimFacts{Name: name, Entries: n,
			Sel: float64(n) / float64(rows), kind: kind, pass: keep})
	}
	if q.DateFilter != nil || q.GroupBy != nil {
		add("date", dimDate, len(d.Date), DateSlots, func(i int) (int, bool) {
			r := &d.Date[i]
			return DateSlot(r.DateKey), q.DateFilter == nil || q.DateFilter(r)
		})
	}
	if q.NeedsCust {
		add("customer", dimCust, len(d.Customer), len(d.Customer)+1, func(i int) (int, bool) {
			r := &d.Customer[i]
			return int(r.CustKey), q.CustFilter == nil || q.CustFilter(r)
		})
	}
	if q.NeedsSupp {
		add("supplier", dimSupp, len(d.Supplier), len(d.Supplier)+1, func(i int) (int, bool) {
			r := &d.Supplier[i]
			return int(r.SuppKey), q.SuppFilter == nil || q.SuppFilter(r)
		})
	}
	if q.NeedsPart {
		add("part", dimPart, len(d.Part), len(d.Part)+1, func(i int) (int, bool) {
			r := &d.Part[i]
			return int(r.PartKey), q.PartFilter == nil || q.PartFilter(r)
		})
	}
	sort.SliceStable(dims, func(i, j int) bool { return dims[i].Sel < dims[j].Sel })
	return dims
}

// joinKey returns fact row i's key into a dimension of the given kind.
func (d *Data) joinKey(kind dimKind, i int) int {
	switch kind {
	case dimDate:
		return int(d.orderSlot[i])
	case dimCust:
		return int(d.Lineorder[i].CustKey)
	case dimSupp:
		return int(d.Lineorder[i].SuppKey)
	default:
		return int(d.Lineorder[i].PartKey)
	}
}

// orderDate returns fact row i's order-date row, nil if it names no day.
func (d *Data) orderDate(i int) *Date {
	if s := d.orderSlot[i]; s >= 0 {
		if ix := d.dateIdx[s]; ix >= 0 {
			return &d.Date[ix]
		}
	}
	return nil
}

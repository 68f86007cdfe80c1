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
			return d.StandardFacts()[j]
		}
	}
	return d.Memo("ssb/facts/"+q.ID, func() any {
		return d.factPass([]Query{q}, runtime.GOMAXPROCS(0))[0]
	}).(*Facts)
}

// StandardFacts returns the 13 standard queries' facts on d, in Queries()
// order, running their fused pass on first use. A caller may call it to
// build the pass ahead of the engines that read it; callers must not
// modify the result.
func (d *Data) StandardFacts() []*Facts {
	return d.Memo("ssb/facts", func() any {
		return d.factPass(standardQueries(), runtime.GOMAXPROCS(0))
	}).([]*Facts)
}

// FactPasses reports how many fact passes have run on d.
func (d *Data) FactPasses() int64 { return d.factPasses.Load() }

// maxFused is the most queries one fact pass serves: a dimension key's
// mask holds one bit per query.
const maxFused = 16

// maxCells bounds a fact pass's cell table (see cellTable). The table's
// size is the product of the four dimensions' class counts times two to the
// number of queries with an LOFilter, so it follows from the queries'
// filters, not from the scale factor: the 13 standard queries need at most
// 7 date, 5 customer, 6 supplier and 6 part classes and 3 pass bits, 10,080
// cells.
const maxCells = 1 << 16

// passMasks[k][key] has bit j set when key passes query j's filter on the
// dimension of kind k, or when query j does not join that dimension. Date
// keys are row indices in Data.Date; the others are the dense 1-based keys.
type passMasks [4][]uint16

// keyClass is one dimension key's pass mask and its class's offset in the
// pass's cell table. The keys of a dimension take few distinct masks, and
// keys with equal masks form one class.
type keyClass struct {
	mask uint16
	cell uint32
}

// cellTable numbers the cells a fact pass counts rows in. A row's cell is
// the sum of its four keys' class offsets plus its pass bits for the
// queries with an LOFilter (bit f for the f-th such query): every query's
// pass index and liveness is a function of the cell, so a row costs one
// increment however many queries share the pass.
type cellTable struct {
	keys    [4][]keyClass // indexed like passMasks
	classes [4][]uint16   // class id -> mask, per dimension kind
	stride  [4]int        // a class id's weight in a cell number
	size    int
}

// newCellTable classifies every key of every dimension by its pass mask.
// It panics when the table would exceed maxCells.
func newCellTable(masks *passMasks, filtered int) *cellTable {
	t := &cellTable{size: 1 << filtered}
	for k := len(masks) - 1; k >= 0; k-- {
		ids := map[uint16]uint32{}
		t.keys[k] = make([]keyClass, len(masks[k]))
		first := 0
		if dimKind(k) != dimDate {
			first = 1 // dense 1-based keys: slot 0 names no row
		}
		for key := first; key < len(masks[k]); key++ {
			m := masks[k][key]
			id, ok := ids[m]
			if !ok {
				id = uint32(len(t.classes[k]))
				ids[m] = id
				t.classes[k] = append(t.classes[k], m)
			}
			t.keys[k][key] = keyClass{mask: m, cell: id * uint32(t.size)}
		}
		t.stride[k] = t.size
		if t.size *= len(t.classes[k]); t.size > maxCells {
			panic(fmt.Sprintf("ssb: fact pass needs %d or more cells, at most %d", t.size, maxCells))
		}
	}
	return t
}

// probeSets says which queries of a pass probe which dimension kinds. The
// set of queries a row probes kind k for is live & counted[k] with every
// query removed whose before[k][k2] the row's kind-k2 key fails.
type probeSets struct {
	// joins[k] has bit j set when query j joins the dimension of kind k.
	joins [4]uint16
	// before[k][k2] has bit j set when query j's rows must pass kind k2
	// before they probe kind k: the date, which the scan evaluates, and
	// every dimension before k in the query's Dims order.
	before [4][4]uint16
	// counted[k] holds one query of each group whose probes of kind k are
	// the same on every row; same[k][j] is the counted query whose
	// frequencies query j takes.
	counted [4]uint16
	same    [4][maxFused]int
}

// add records the probe plan of the query with mask bit whose joined
// dimensions are dims.
func (ps *probeSets) add(dims []DimFacts, bit uint16) {
	date := false
	for _, dim := range dims {
		ps.joins[dim.kind] |= bit
		date = date || dim.kind == dimDate
	}
	for x, dim := range dims {
		if dim.kind == dimDate {
			continue
		}
		if date {
			ps.before[dim.kind][dimDate] |= bit
		}
		for _, prev := range dims[:x] {
			ps.before[dim.kind][prev.kind] |= bit
		}
	}
}

// share groups the queries whose probes of a kind coincide on every row:
// neither has an LOFilter, both must pass the same kinds first, and every
// class of those kinds passes both or neither. The standard queries' Q2.x
// all probe the part key of every row, for example, so one count serves
// the three.
func (ps *probeSets) share(qs []Query, t *cellTable) {
	alike := func(k dimKind, a, b int) bool {
		if qs[a].LOFilter != nil || qs[b].LOFilter != nil {
			return false
		}
		for k2, need := range ps.before[k] {
			if need>>a&1 != need>>b&1 {
				return false
			}
			if need>>a&1 == 0 {
				continue
			}
			for _, m := range t.classes[k2] {
				if m>>a&1 != m>>b&1 {
					return false
				}
			}
		}
		return true
	}
	for k := dimCust; k <= dimPart; k++ {
		for j := range qs {
			if ps.joins[k]>>j&1 == 0 {
				continue
			}
			ps.same[k][j] = j
			for r := range j {
				if ps.counted[k]>>r&1 != 0 && alike(k, r, j) {
					ps.same[k][j] = r
					break
				}
			}
			if ps.same[k][j] == j {
				ps.counted[k] |= 1 << j
			}
		}
	}
}

// factPass regenerates every fact row once, on the given number of
// goroutines, and computes the facts of each query in qs (at most
// maxFused). Each worker keeps private cell counts, probe frequencies and
// group sums over a contiguous row range; integer sums commute, so the
// merged facts are the same for every worker count.
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
	var filtered []int // the queries with fact-local predicates
	var ps probeSets
	for j := range qs {
		facts[j] = &Facts{Dims: d.joinedDims(&qs[j], 1<<j, &masks), Result: Result{}}
		ps.add(facts[j].Dims, 1<<j)
		if qs[j].LOFilter != nil {
			filtered = append(filtered, j)
		}
	}
	t := newCellTable(&masks, len(filtered))
	ps.share(qs, t)
	all := uint16(1)<<len(qs) - 1

	type partial struct {
		cells  []int64
		freq   [][4][]int64 // [query][kind]; nil unless the query is counted[kind]
		groups []*Grouper
	}
	parts := make([]partial, max(workers, 1))
	parallelRange(d.rows, workers, func(w, lo, hi int) {
		p := partial{cells: make([]int64, t.size), freq: make([][4][]int64, len(qs)),
			groups: make([]*Grouper, len(qs))}
		for j := range qs {
			p.groups[j] = NewGrouper()
			for k := dimCust; k <= dimPart; k++ {
				if ps.counted[k]>>j&1 != 0 {
					p.freq[j][k] = make([]int64, len(masks[k]))
				}
			}
		}
		row := new(Lineorder) // the filters take pointers; one row per worker
		for i := lo; i < hi; i++ {
			di := d.factRow(i, row)
			keys := [4]uint32{uint32(di), row.CustKey, row.SuppKey, row.PartKey}
			var m [4]uint16
			cell := 0
			for k := range keys {
				c := &t.keys[k][keys[k]]
				m[k] = c.mask
				cell += int(c.cell)
			}
			live := all
			for f, j := range filtered {
				if qs[j].LOFilter(row) {
					cell |= 1 << f
				} else {
					live &^= 1 << j
				}
			}
			p.cells[cell]++
			for k := dimCust; k <= dimPart; k++ {
				b := &ps.before[k]
				probes := live & ps.counted[k] &^ (b[0] &^ m[0]) &^ (b[1] &^ m[1]) &^ (b[2] &^ m[2]) &^ (b[3] &^ m[3])
				for ; probes != 0; probes &= probes - 1 {
					p.freq[bits.TrailingZeros16(probes)][k][keys[k]]++
				}
			}
			for qual := live & m[0] & m[1] & m[2] & m[3]; qual != 0; qual &= qual - 1 {
				j := bits.TrailingZeros16(qual)
				q := &qs[j]
				p.groups[j].Add(q, row, &d.Date[di], d.CustomerByKey(row.CustKey),
					d.SupplierByKey(row.SuppKey), d.PartByKey(row.PartKey), q.Aggregate(row))
			}
		}
		parts[w] = p
	})

	// Sum the workers' cells, then expand each nonzero cell into the pass
	// index histogram (bit k: passes kind k) of every query live in it.
	cells := make([]int64, t.size)
	for _, p := range parts {
		for c, n := range p.cells {
			cells[c] += n
		}
	}
	hist := make([][16]int64, len(qs))
	for c, n := range cells {
		if n == 0 {
			continue
		}
		var m [4]uint16
		for k := range m {
			m[k] = t.classes[k][c/t.stride[k]%len(t.classes[k])]
		}
		live := all
		for f, j := range filtered {
			if c>>f&1 == 0 {
				live &^= 1 << j
			}
		}
		for ; live != 0; live &= live - 1 {
			j := bits.TrailingZeros16(live)
			hist[j][m[0]>>j&1|m[1]>>j&1<<1|m[2]>>j&1<<2|m[3]>>j&1<<3] += n
		}
	}

	for j, f := range facts {
		// Every bit of a dimension the query does not join is set in every
		// row's pass index (see passMasks), so remapping keeps only the
		// joined dimensions' bits, in Dims order.
		f.hist = make([]int64, 1<<len(f.Dims))
		for idx, n := range hist[j] {
			at := 0
			for x, dim := range f.Dims {
				at |= idx >> dim.kind & 1 << x
			}
			f.hist[at] += n
			f.ScanSurvivors += n
		}
		for x := range f.Dims {
			if k := f.Dims[x].kind; k != dimDate {
				f.Dims[x].ProbeFreq = make([]int64, len(masks[k]))
			}
		}
		for _, p := range parts {
			if p.groups == nil {
				continue
			}
			for x := range f.Dims {
				k := f.Dims[x].kind
				for key, c := range p.freq[ps.same[k][j]][k] {
					f.Dims[x].ProbeFreq[key] += c
				}
			}
			p.groups[j].Emit(f.Result)
		}
		f.Qualifying = f.hist[len(f.hist)-1]
	}
	return facts
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

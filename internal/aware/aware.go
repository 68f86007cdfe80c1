// Package aware implements the paper's handcrafted, PMEM-aware SSB engine
// (Section 6.2). It applies the evaluation's best practices:
//
//   - row-format fact table with 128 B-aligned tuples, striped across the
//     PMEM of both sockets; threads scan only their near partition in
//     individual sequential chunks (Insights #1, #4, #5);
//   - dimension tables and their join indexes replicated on every socket so
//     probes never cross the UPI (Section 6.2);
//   - hash joins through the PMEM-optimized Dash index (256 B buckets);
//   - threads explicitly pinned to physical cores (Insight #3/#8);
//   - date handled by predicate pushdown and an in-cache lookup table
//     instead of a join (the date dimension has at most 2557 rows).
//
// Every query really executes over generated data, once per data set in the
// fact pass both engines share (ssb.Data.Facts) — results are exact and
// compared against the reference executor. The engine builds its real Dash
// indexes, counts the bucket reads its probes make, and charges its memory
// traffic to the simulated machine, which produces the virtual runtimes of
// Figure 14b and Table 1.
package aware

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/arena"
	"repro/internal/cpu"
	"repro/internal/dash"
	"repro/internal/machine"
	"repro/internal/ssb"
	"repro/internal/topology"
)

// Cost model constants: per-operation CPU costs of the handcrafted C++
// implementation the engine stands in for. Calibrated against Table 1
// (Q2.1: 306.7 s on PMEM / 221.2 s on DRAM with one thread at sf 100).
const (
	// ScanCPUPerRow covers tuple decode, fact-local predicates, and the
	// in-cache date lookup.
	ScanCPUPerRow = 15e-9
	// ProbeCPU covers hashing, fingerprint comparison, and key check of one
	// Dash probe.
	ProbeCPU = 300e-9
	// AggCPUPerRow covers the per-qualifying-row aggregation update.
	AggCPUPerRow = 40e-9
	// LLCBytes is the effective per-socket last-level cache available to
	// probe working sets (Xeon Gold 5220S: 24.75 MB L3 + L2s).
	LLCBytes = 25 << 20
	// MaxCacheHit bounds how much of a small index stays cache-resident
	// across a scan.
	MaxCacheHit = 0.9
)

// Options configure an engine instance; zero values get defaults.
type Options struct {
	Device    access.DeviceClass // PMEM (default) or DRAM
	Threads   int                // default 36 (all physical cores)
	Sockets   int                // 1 or 2 (default 2)
	Pinning   cpu.PinPolicy      // default PinCores
	NUMAAware bool               // near-only access (default true via New)
	// TargetSF scales the traffic statistics to this scale factor (the
	// paper's sf 100); 0 means the data's own scale factor.
	TargetSF float64
	// SSDScan stores the fact table on the NVMe SSD while indexes and
	// intermediates stay in DRAM — the "traditional OLAP system" baseline
	// of Section 6.2.
	SSDScan bool
	// HybridDims keeps the fact table on PMEM but places the dimension
	// tables and Dash indexes in DRAM — the hybrid PMEM-DRAM design the
	// paper names as future work (Sections 5.2, 9). Random-access-heavy
	// probes hit DRAM while the sequential scan exploits PMEM capacity.
	HybridDims bool
}

// Engine holds the loaded database and its placement.
type Engine struct {
	m    *machine.Machine
	data *ssb.Data
	opt  Options

	factScale float64 // target fact rows / data fact rows
	dimScale  map[string]float64

	// shares, when non-nil, is the normalized fact-scan split across the
	// active sockets (fault re-planning); nil means an equal split.
	shares []float64

	factRegion []*machine.Region
	dimRegion  []*machine.Region
	ssdRegion  *machine.Region
	staging    []*machine.Region // concurrent-ingest target (RunWithIngest)

	// lastFactRun is the machine result of the most recent fact phase; the
	// ingest reporting reads the open-ended writers' moved bytes from it.
	lastFactRun machine.RunResult

	// Simulation scratch, recycled across queries (an engine's Runs are
	// serialized). Stream descriptors come from a slab arena, and the label
	// strings and thread placements — pure functions of the engine's fixed
	// configuration — are memoized, so a warmed query run allocates no
	// per-stream garbage.
	streamArena *arena.Arena[machine.Stream]
	streamBuf   []*machine.Stream
	threadPlace [][]cpu.Placement
	buildPlace  map[[2]int][]cpu.Placement
	labels      map[labelKey]string
}

// labelKey identifies one memoized stream label.
type labelKey struct {
	kind    byte   // 's' scan, 'p' probe, 'b' build-scan, 'i' build-index
	name    string // dimension name ("" for scan)
	s, t    int    // socket, thread (-1 when unused)
	variant byte   // 0 base, 'n' "/near", 'f' "/far"
}

// labelFor memoizes the stream label for a key, so hot runs reuse one
// string per (stage, socket, thread, split) instead of re-rendering it.
func (e *Engine) labelFor(kind byte, name string, s, t int, variant byte) string {
	k := labelKey{kind: kind, name: name, s: s, t: t, variant: variant}
	if v, ok := e.labels[k]; ok {
		return v
	}
	var v string
	switch kind {
	case 's':
		v = fmt.Sprintf("scan/s%d/t%02d", s, t)
	case 'p':
		v = fmt.Sprintf("probe-%s/s%d/t%02d", name, s, t)
	case 'b':
		v = fmt.Sprintf("build-scan/%s/s%d", name, s)
	case 'i':
		v = fmt.Sprintf("build-index/%s/s%d", name, s)
	}
	switch variant {
	case 'n':
		v += "/near"
	case 'f':
		v += "/far"
	}
	e.labels[k] = v
	return v
}

// QueryRun is one executed query.
type QueryRun struct {
	ID      string
	Result  ssb.Result
	Seconds float64
	Phases  []Phase
	Stats   Stats
}

// Phase is one timed stage of a query.
type Phase struct {
	Name    string
	Seconds float64
}

// Stats summarizes the traffic behind a run (already scaled to TargetSF).
type Stats struct {
	TuplesScanned  int64
	BytesScanned   int64
	Probes         int64
	ProbeBytes     int64 // media-visible probe traffic after cache filtering
	QualifyingRows int64
	Groups         int
}

// New loads the data set into an engine: encodes the fact table, stripes it
// across the active sockets, and allocates the simulated regions.
func New(m *machine.Machine, data *ssb.Data, opt Options) (*Engine, error) {
	if opt.Threads == 0 {
		opt.Threads = 36
	}
	if opt.Sockets == 0 {
		opt.Sockets = 2
	}
	if opt.Sockets < 1 || opt.Sockets > m.Topology().Sockets() {
		return nil, fmt.Errorf("aware: sockets = %d out of range", opt.Sockets)
	}
	if opt.Threads < 1 {
		return nil, fmt.Errorf("aware: threads = %d out of range", opt.Threads)
	}
	if opt.TargetSF == 0 {
		opt.TargetSF = data.SF
	}
	e := &Engine{m: m, data: data, opt: opt,
		streamArena: arena.New[machine.Stream](64),
		buildPlace:  map[[2]int][]cpu.Placement{},
		labels:      map[labelKey]string{},
	}
	e.factScale = float64(rowsAt(opt.TargetSF)) / float64(data.Rows())
	e.dimScale = map[string]float64{
		"customer": scaleOf(len(data.Customer), custAt(opt.TargetSF)),
		"supplier": scaleOf(len(data.Supplier), suppAt(opt.TargetSF)),
		"part":     scaleOf(len(data.Part), partAt(opt.TargetSF)),
	}

	// Allocate the simulated regions at target scale.
	factBytesTarget := rowsAt(opt.TargetSF) * ssb.TupleBytes
	perSocket := factBytesTarget / int64(opt.Sockets)
	dimBytes := e.dimFootprint()
	for s := 0; s < opt.Sockets; s++ {
		sock := topology.SocketID(s)
		var fr, dr *machine.Region
		var err error
		if opt.SSDScan {
			if s == 0 {
				e.ssdRegion, err = m.AllocSSD("ssb/fact", factBytesTarget)
				if err != nil {
					return nil, err
				}
			}
			fr = e.ssdRegion
			dr, err = m.AllocDRAM(fmt.Sprintf("ssb/dims-%d", s), sock, dimBytes)
		} else if opt.Device == access.DRAM {
			fr, err = m.AllocDRAM(fmt.Sprintf("ssb/fact-%d", s), sock, perSocket)
			if err != nil {
				return nil, err
			}
			dr, err = m.AllocDRAM(fmt.Sprintf("ssb/dims-%d", s), sock, dimBytes)
		} else if opt.HybridDims {
			fr, err = m.AllocPMEM(fmt.Sprintf("ssb/fact-%d", s), sock, perSocket, machine.FsDax)
			if err != nil {
				return nil, err
			}
			fr.PreFault()
			dr, err = m.AllocDRAM(fmt.Sprintf("ssb/dims-%d", s), sock, dimBytes)
		} else {
			// The paper's SSB runs on fsdax ("Dash requires a filesystem
			// interface"); data is written during load, so pages are faulted.
			fr, err = m.AllocPMEM(fmt.Sprintf("ssb/fact-%d", s), sock, perSocket, machine.FsDax)
			if err != nil {
				return nil, err
			}
			fr.PreFault()
			dr, err = m.AllocPMEM(fmt.Sprintf("ssb/dims-%d", s), sock, dimBytes, machine.FsDax)
			if err == nil {
				dr.PreFault()
			}
		}
		if err != nil {
			return nil, err
		}
		// Steady-state query service: coherency mappings established and the
		// read-only tables' directory entries settled in shared state.
		fr.CoherenceStable = true
		dr.CoherenceStable = true
		for o := 0; o < m.Topology().Sockets(); o++ {
			fr.WarmFor(topology.SocketID(o))
			dr.WarmFor(topology.SocketID(o))
		}
		e.factRegion = append(e.factRegion, fr)
		e.dimRegion = append(e.dimRegion, dr)
	}
	return e, nil
}

func scaleOf(have, want int) float64 {
	if have == 0 {
		return 1
	}
	return float64(want) / float64(have)
}

func rowsAt(sf float64) int64 { return int64(6_000_000 * sf) }
func custAt(sf float64) int   { return int(30_000 * sf) }
func suppAt(sf float64) int   { return int(2_000 * sf) }
func partAt(sf float64) int {
	if sf >= 1 {
		mult := 1
		for s := 2.0; s <= sf; s *= 2 {
			mult++
		}
		return 200_000 * mult
	}
	return int(200_000 * sf)
}

func (e *Engine) dimFootprint() int64 {
	// Replicated dimensions plus generous index headroom, at target scale.
	rows := int64(custAt(e.opt.TargetSF)) + int64(suppAt(e.opt.TargetSF)) + int64(partAt(e.opt.TargetSF))
	b := rows * 256 // ~200 B row + index share
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

// dimIndex is one built join index.
type dimIndex struct {
	name        string
	ix          *dash.Index
	entries     int
	buildStats  dash.Stats
	selectivity float64
	// probeReads is the bucket loads of the fact phase's probes into the
	// index (set on memoized executions only).
	probeReads int64
}

// factExec is one query's join side: the built indexes (in build order),
// the same indexes in probe order, and the query's shared facts, which hold
// the exact result. It is a pure function of (data, query): index contents
// depend only on the dimension filters and the probe counts only on the
// facts. Engines therefore share one execution per query via Data.Memo,
// no matter which device/thread/socket configuration they simulate.
type factExec struct {
	indexes    []*dimIndex
	probeOrder []*dimIndex
	facts      *ssb.Facts
}

// factExecFor builds (or recalls) the executed join side for q. Probes run
// in the facts' selectivity order with the date predicate pushed into the
// scan, so each index's probe keys and their frequencies are the facts'
// ProbeFreq.
func (e *Engine) factExecFor(q ssb.Query) *factExec {
	return e.data.Memo("aware/exec/"+q.ID, func() any {
		f := e.data.Facts(q)
		ex := &factExec{indexes: e.buildIndexes(q), facts: f}
		for _, dim := range f.Dims {
			for _, ix := range ex.indexes {
				if ix.name == dim.Name {
					ix.probeReads = probeReads(ix.ix, dim.ProbeFreq)
					ex.probeOrder = append(ex.probeOrder, ix)
				}
			}
		}
		return ex
	}).(*factExec)
}

// probeReads counts the bucket loads of probing ix freq[k] times with each
// key k. A Get on a frozen index reads a number of buckets that is a pure
// function of the key, so each probed key is looked up once and its reads
// weighted by its frequency.
func probeReads(ix *dash.Index, freq []int64) int64 {
	var total int64
	for k, n := range freq {
		if n == 0 {
			continue
		}
		before := ix.Stats().BucketReads
		ix.Get(uint64(k))
		total += n * (ix.Stats().BucketReads - before)
	}
	return total
}

// Run executes one query and returns its exact result plus simulated timing.
func (e *Engine) Run(q ssb.Query) (QueryRun, error) {
	return e.runWith(q, nil)
}

// runWith executes the query with optional extra concurrent streams charged
// alongside the fact phase (the Section 5.1 "queries while data is
// ingested" scenario).
func (e *Engine) runWith(q ssb.Query, extra []*machine.Stream) (QueryRun, error) {
	exec := e.factExecFor(q)
	run := QueryRun{ID: q.ID, Result: make(ssb.Result, len(exec.facts.Result)),
		Phases: make([]Phase, 0, 3)}

	// --- Build phase: Dash indexes over the filtered dimensions. ---
	buildSec, err := e.simulateBuild(exec.indexes)
	if err != nil {
		return run, err
	}
	run.Phases = append(run.Phases, Phase{"build", buildSec})

	// --- Fact phase: scan, probe, aggregate (executed once per data set
	// by the shared fact pass). Copy the result: the memoized map is shared
	// and callers may hold QueryRun.Result past this run.
	for k, v := range exec.facts.Result {
		run.Result[k] = v
	}

	factSec, stats, err := e.simulateFactPhase(q, exec.probeOrder, exec.facts.Qualifying, len(run.Result), extra)
	if err != nil {
		return run, err
	}
	run.Phases = append(run.Phases, Phase{"scan+probe+aggregate", factSec})
	run.Stats = stats

	// --- Merge phase: combine the per-thread partial aggregates. ---
	mergeSec := e.simulateMerge(len(run.Result))
	run.Phases = append(run.Phases, Phase{"merge", mergeSec})

	for _, ph := range run.Phases {
		run.Seconds += ph.Seconds
	}
	return run, nil
}

// buildIndexes constructs the filtered Dash indexes the query needs.
func (e *Engine) buildIndexes(q ssb.Query) []*dimIndex {
	var out []*dimIndex
	if q.NeedsCust {
		ix := dash.MustNew(4)
		n := 0
		for i := range e.data.Customer {
			c := &e.data.Customer[i]
			if q.CustFilter == nil || q.CustFilter(c) {
				if err := ix.Insert(uint64(c.CustKey), uint64(i)); err != nil {
					panic(err) // arena-backed inserts only fail on depth overflow
				}
				n++
			}
		}
		out = append(out, &dimIndex{name: "customer", ix: ix, entries: n,
			buildStats: ix.Stats(), selectivity: float64(n) / float64(len(e.data.Customer))})
	}
	if q.NeedsSupp {
		ix := dash.MustNew(2)
		n := 0
		for i := range e.data.Supplier {
			s := &e.data.Supplier[i]
			if q.SuppFilter == nil || q.SuppFilter(s) {
				if err := ix.Insert(uint64(s.SuppKey), uint64(i)); err != nil {
					panic(err)
				}
				n++
			}
		}
		out = append(out, &dimIndex{name: "supplier", ix: ix, entries: n,
			buildStats: ix.Stats(), selectivity: float64(n) / float64(len(e.data.Supplier))})
	}
	if q.NeedsPart {
		ix := dash.MustNew(4)
		n := 0
		for i := range e.data.Part {
			p := &e.data.Part[i]
			if q.PartFilter == nil || q.PartFilter(p) {
				if err := ix.Insert(uint64(p.PartKey), uint64(i)); err != nil {
					panic(err)
				}
				n++
			}
		}
		out = append(out, &dimIndex{name: "part", ix: ix, entries: n,
			buildStats: ix.Stats(), selectivity: float64(n) / float64(len(e.data.Part))})
	}
	return out
}

// dimScaleOf maps an index name to its target-scale multiplier.
func (e *Engine) dimScaleOf(name string) float64 { return e.dimScale[name] }

// cacheMissRate estimates how much probe traffic reaches the media given the
// index working set vs the LLC.
func cacheMissRate(indexBytes float64) float64 {
	hit := MaxCacheHit * math.Min(1, float64(LLCBytes)/math.Max(indexBytes, 1))
	if hit < 0 {
		hit = 0
	}
	return 1 - hit
}

func (e *Engine) activeSockets() int { return e.opt.Sockets }

// threadsPlacement assigns the engine's threads across the active sockets.
// The assignment depends only on the engine's fixed configuration, so it is
// computed once and memoized.
func (e *Engine) threadsPlacement() [][]cpu.Placement {
	if e.threadPlace != nil {
		return e.threadPlace
	}
	per := e.opt.Threads / e.activeSockets()
	rem := e.opt.Threads % e.activeSockets()
	var out [][]cpu.Placement
	for s := 0; s < e.activeSockets(); s++ {
		n := per
		if s < rem {
			n++
		}
		if n == 0 {
			out = append(out, nil)
			continue
		}
		out = append(out, cpu.AssignThreads(e.m.Topology(), e.pinPolicy(), topology.SocketID(s), n))
	}
	e.threadPlace = out
	return out
}

// buildPlacementsFor memoizes the build-phase thread assignment for a
// (socket, thread count) pair.
func (e *Engine) buildPlacementsFor(sock topology.SocketID, n int) []cpu.Placement {
	k := [2]int{int(sock), n}
	if p, ok := e.buildPlace[k]; ok {
		return p
	}
	p := cpu.AssignThreads(e.m.Topology(), e.pinPolicy(), sock, n)
	e.buildPlace[k] = p
	return p
}

func (e *Engine) pinPolicy() cpu.PinPolicy {
	if e.opt.Pinning == cpu.PinNone {
		return cpu.PinNone
	}
	return e.opt.Pinning
}

// Package cpu models the processor side of the memory system: how fast one
// thread can issue memory traffic (its "demand") as a function of device,
// direction, pattern, access size, prefetcher behaviour, hyperthreading, and
// NUMA distance; plus the thread-to-core assignment policies the paper
// compares (Sections 3.2, 3.3, 4.2, 4.3).
package cpu

import (
	"math"

	"repro/internal/access"
	"repro/internal/topology"
)

// Params holds the calibration constants of the thread demand model.
type Params struct {
	// PMEMReadBase is a thread's sequential PMEM read issue rate without
	// prefetching (limited by outstanding misses at ~300 ns latency).
	PMEMReadBase float64
	// PrefetchBoost multiplies PMEMReadBase at full prefetcher efficiency:
	// rate = base * (1 + eff*boost). Calibrated so 8 threads reach ~34 GB/s
	// ("as few as 8 threads achieves nearly as much bandwidth utilization as
	// 36 threads (~15% difference)", Section 3.2).
	PrefetchBoost float64
	// PMEMWriteMax is a thread's peak ntstore+sfence issue rate; 4 threads
	// saturate the 12.6 GB/s socket write bandwidth (Section 4.2).
	PMEMWriteMax float64
	// PMEMRandReadMax / PMEMRandReadHalfSize shape random read demand:
	// rate = max * size/(size+half). Random reads are latency-bound and do
	// not benefit from the prefetcher.
	PMEMRandReadMax      float64
	PMEMRandReadHalfSize float64
	// PMEMRandWriteMax / PMEMRandWriteHalfSize shape random write demand.
	PMEMRandWriteMax      float64
	PMEMRandWriteHalfSize float64
	// ReadSmallOpBytes / WriteSmallOpBytes are the per-operation overhead
	// knees: rate *= size/(size+knee) for sequential access.
	ReadSmallOpBytes  float64
	WriteSmallOpBytes float64
	// HTDemandFactor derates a sequential PMEM thread whose hyperthread
	// sibling is active with the prefetcher enabled (shared L2 pollution,
	// Section 3.2).
	HTDemandFactor float64
	// HTReadAmplification is the wasted media traffic (evicted-before-use
	// prefetches) of HT-polluted sequential PMEM readers; it is why 24
	// threads read *slower* than 18 (Figure 3).
	HTReadAmplification float64
	// HTAlignedReadAmplification applies instead at 4 KiB-aligned access,
	// where the prefetcher stays accurate; this is why 36 threads still hit
	// peak bandwidth "for certain access sizes" (Section 3.2).
	HTAlignedReadAmplification float64
	// FarReadDemandFactor / FarWriteDemandFactor derate threads accessing
	// the remote socket (UPI latency on every miss / blocking store).
	FarReadDemandFactor  float64
	FarWriteDemandFactor float64
	// DRAM side.
	DRAMReadPerThread     float64
	DRAMWritePerThread    float64
	DRAMRandReadMax       float64
	DRAMRandReadHalfSize  float64
	DRAMRandWriteMax      float64
	DRAMRandWriteHalfSize float64
	DRAMHTDemandFactor    float64
	// DependentChasePMEM / DependentChaseDRAM derate random-read demand for
	// *dependent* accesses (hash-bucket walks, pointer chasing): each access
	// must complete before the next can issue, so memory-level parallelism
	// is lost. PMEM's ~3x higher latency makes this the dominant cost of
	// PMEM-unaware hash joins (Section 6.1).
	DependentChasePMEM float64
	DependentChaseDRAM float64
	// NUMAPinOversubscribedFactor derates demand when threads are pinned to
	// a NUMA region with more threads than physical cores (scheduler moves
	// threads between cores, Section 3.3).
	NUMAPinOversubscribedFactor float64
	// NUMAPinWriteWAFactor inflates write amplification under NUMA-region
	// pinning with oversubscription: intra-region placement may cross NUMA
	// *nodes*, splitting streams across iMCs and hurting write combining
	// (Section 4.3).
	NUMAPinWriteWAFactor float64
	// Unpinned (PinNone) phenomenological caps, see UnpinnedCap.
	UnpinnedReadPeak  float64
	UnpinnedWritePeak float64
	UnpinnedPeakAt    float64
	UnpinnedRiseExp   float64
	UnpinnedFallExpRd float64
	UnpinnedFallExpWr float64
}

// DefaultParams returns the calibrated demand model for the paper's
// Xeon Gold 5220S platform.
func DefaultParams() Params {
	return Params{
		PMEMReadBase:                1.6e9,
		PrefetchBoost:               1.7,
		PMEMWriteMax:                3.3e9,
		PMEMRandReadMax:             1.4e9,
		PMEMRandReadHalfSize:        450,
		PMEMRandWriteMax:            1.5e9,
		PMEMRandWriteHalfSize:       700,
		ReadSmallOpBytes:            32,
		WriteSmallOpBytes:           120,
		HTDemandFactor:              0.55,
		HTReadAmplification:         1.25,
		HTAlignedReadAmplification:  1.03,
		FarReadDemandFactor:         0.55,
		FarWriteDemandFactor:        0.45,
		DRAMReadPerThread:           8e9,
		DRAMWritePerThread:          4e9,
		DRAMRandReadMax:             3.4e9,
		DRAMRandReadHalfSize:        250,
		DRAMRandWriteMax:            2.4e9,
		DRAMRandWriteHalfSize:       400,
		DRAMHTDemandFactor:          0.85,
		DependentChasePMEM:          0.45,
		DependentChaseDRAM:          0.85,
		NUMAPinOversubscribedFactor: 0.96,
		NUMAPinWriteWAFactor:        1.08,
		UnpinnedReadPeak:            9.5e9,
		UnpinnedWritePeak:           7e9,
		UnpinnedPeakAt:              8,
		UnpinnedRiseExp:             0.9,
		UnpinnedFallExpRd:           0.12,
		UnpinnedFallExpWr:           0.10,
	}
}

// PrefetchEfficiency returns the L2 hardware prefetcher's efficiency (0..1)
// for a pattern/access-size combination.
//
// Individual sequential streams are perfectly prefetchable. Grouped access
// with 512 B - 2 KiB chunks defeats the stride detector (the paper's 1-2 KiB
// dip, Section 3.1: "the L2 hardware prefetcher performs poorly for 1 and
// 2 KB access", present on both PMEM and DRAM). Random access never
// benefits.
func PrefetchEfficiency(pattern access.Pattern, accessSize int64) float64 {
	switch pattern {
	case access.SeqIndividual:
		return 1.0
	case access.SeqGrouped:
		switch {
		case accessSize <= 256:
			return 1.0 // dense global stream, lines arrive in order
		case accessSize <= 512:
			return 0.6
		case accessSize <= 2048:
			return 0.25 // the Figure 3a dip
		default:
			return 0.9
		}
	default:
		return 0
	}
}

// StreamCtx describes one thread's stream for demand computation.
type StreamCtx struct {
	Device          access.DeviceClass
	Dir             access.Direction
	Pattern         access.Pattern
	AccessSize      int64
	Far             bool // accessing the remote socket's memory
	HTPolluted      bool // hyperthread sibling active and prefetcher enabled
	PrefetcherOn    bool
	Dependent       bool    // serially dependent accesses (pointer chase)
	ExtraCPUPerByte float64 // query-processing cost folded into the demand
}

// IssueRate returns the thread's maximum achievable throughput in bytes/s
// before any device-side contention.
func (p *Params) IssueRate(ctx StreamCtx) float64 {
	raw := p.rawIssueRate(ctx)
	if raw <= 0 {
		return 0
	}
	if ctx.Dependent && ctx.Pattern == access.Random {
		switch ctx.Device {
		case access.PMEM:
			raw *= p.DependentChasePMEM
		case access.DRAM:
			raw *= p.DependentChaseDRAM
		}
	}
	if ctx.ExtraCPUPerByte > 0 {
		raw = 1 / (1/raw + ctx.ExtraCPUPerByte)
	}
	return raw
}

func (p *Params) rawIssueRate(ctx StreamCtx) float64 {
	size := float64(ctx.AccessSize)
	if size <= 0 {
		size = 64
	}
	switch ctx.Device {
	case access.PMEM:
		if ctx.Dir == access.Read {
			if ctx.Pattern == access.Random {
				r := p.PMEMRandReadMax * size / (size + p.PMEMRandReadHalfSize)
				if ctx.Far {
					r *= p.FarReadDemandFactor
				}
				return r
			}
			eff := 0.0
			if ctx.PrefetcherOn {
				eff = PrefetchEfficiency(ctx.Pattern, ctx.AccessSize)
			}
			r := p.PMEMReadBase * (1 + eff*p.PrefetchBoost)
			r *= size / (size + p.ReadSmallOpBytes)
			if ctx.HTPolluted && ctx.PrefetcherOn && ctx.Pattern.Sequential() {
				r *= p.HTDemandFactor
			}
			if ctx.Far {
				r *= p.FarReadDemandFactor
			}
			return r
		}
		// PMEM writes.
		if ctx.Pattern == access.Random {
			r := p.PMEMRandWriteMax * size / (size + p.PMEMRandWriteHalfSize)
			if ctx.Far {
				r *= p.FarWriteDemandFactor
			}
			return r
		}
		r := p.PMEMWriteMax * size / (size + p.WriteSmallOpBytes)
		if ctx.HTPolluted {
			r *= p.HTDemandFactor
		}
		if ctx.Far {
			r *= p.FarWriteDemandFactor
		}
		return r
	case access.DRAM:
		if ctx.Dir == access.Read {
			if ctx.Pattern == access.Random {
				r := p.DRAMRandReadMax * size / (size + p.DRAMRandReadHalfSize)
				if ctx.Far {
					r *= p.FarReadDemandFactor
				}
				if ctx.HTPolluted {
					r *= p.DRAMHTDemandFactor
				}
				return r
			}
			r := p.DRAMReadPerThread * size / (size + p.ReadSmallOpBytes)
			if ctx.HTPolluted {
				r *= p.DRAMHTDemandFactor
			}
			if ctx.Far {
				r *= p.FarReadDemandFactor
			}
			return r
		}
		if ctx.Pattern == access.Random {
			r := p.DRAMRandWriteMax * size / (size + p.DRAMRandWriteHalfSize)
			if ctx.Far {
				r *= p.FarWriteDemandFactor
			}
			return r
		}
		r := p.DRAMWritePerThread * size / (size + p.WriteSmallOpBytes)
		if ctx.HTPolluted {
			r *= p.DRAMHTDemandFactor
		}
		if ctx.Far {
			r *= p.FarWriteDemandFactor
		}
		return r
	default: // SSD: block layer, thread demand rarely binds.
		return 3.5e9
	}
}

// HTMediaAmplification returns the media-traffic amplification caused by an
// HT-polluted sequential PMEM reader (evicted-before-use prefetches).
func (p *Params) HTMediaAmplification(accessSize int64, pattern access.Pattern) float64 {
	if !pattern.Sequential() {
		return 1 // prefetcher idle on random access
	}
	if accessSize >= 4096 && accessSize%4096 == 0 {
		return p.HTAlignedReadAmplification
	}
	return p.HTReadAmplification
}

// UnpinnedCap is the phenomenological aggregate-bandwidth ceiling for
// unpinned (PinNone) thread groups: the OS scheduler spreads threads over
// both sockets, mappings flip between NUMA regions, and bandwidth collapses
// (Figures 4 and 9). The curve rises to a peak around 8 threads and sags
// slightly beyond; the absolute levels (9.5 / 7 GB/s) are the paper's.
//
// This is the one component we model phenomenologically rather than
// mechanistically: it stands in for Linux CFS migration behaviour, which the
// paper itself treats as a black box ("the scheduler placing some of the
// threads on the far socket").
func (p *Params) UnpinnedCap(dir access.Direction, threads int) float64 {
	peak := p.UnpinnedReadPeak
	fall := p.UnpinnedFallExpRd
	if dir == access.Write {
		peak = p.UnpinnedWritePeak
		fall = p.UnpinnedFallExpWr
	}
	t := float64(threads)
	if t <= 0 {
		return 0
	}
	rise := math.Pow(math.Min(t, p.UnpinnedPeakAt)/p.UnpinnedPeakAt, p.UnpinnedRiseExp)
	sag := math.Pow(p.UnpinnedPeakAt/math.Max(t, p.UnpinnedPeakAt), fall)
	return peak * rise * sag
}

// PinPolicy is the thread-to-core assignment strategy (Sections 3.3, 4.3).
type PinPolicy int

const (
	// PinCores pins each thread to one explicit logical core, physical cores
	// first ("in the Cores run, with fewer than 18 threads, we fill up the
	// physical cores before placing threads on the logical sibling cores").
	PinCores PinPolicy = iota
	// PinNUMA pins threads to the NUMA region (socket) but lets the
	// scheduler move them between its cores.
	PinNUMA
	// PinNone lets the scheduler place threads anywhere on the machine.
	PinNone
)

func (p PinPolicy) String() string {
	switch p {
	case PinCores:
		return "cores"
	case PinNUMA:
		return "numa"
	case PinNone:
		return "none"
	default:
		return "unknown"
	}
}

// Placement is the outcome of assigning one thread.
type Placement struct {
	Core           topology.CoreID
	HTShared       bool // the sibling context is also occupied
	Oversubscribed bool // more threads than logical cores on the target set
}

// AssignThreads distributes n threads over the given socket under the
// policy. For PinNone the returned placements are advisory (the machine
// model applies the unpinned cap instead); they round-robin over all
// sockets' cores to reflect scheduler spreading.
func AssignThreads(topo *topology.Topology, policy PinPolicy, socket topology.SocketID, n int) []Placement {
	return AssignThreadsOffset(topo, policy, socket, n, 0)
}

// AssignThreadsOffset assigns n threads starting after `offset` already
// occupied thread slots — how concurrent workloads (Figure 11's readers and
// writers) share one socket's cores without stacking on the same ones.
func AssignThreadsOffset(topo *topology.Topology, policy PinPolicy, socket topology.SocketID, n, offset int) []Placement {
	var cores []topology.CoreID
	switch policy {
	case PinNone:
		for s := topology.SocketID(0); int(s) < topo.Sockets(); s++ {
			cores = append(cores, topo.CoresOfSocket(s)...)
		}
	default:
		cores = topo.CoresOfSocket(socket)
	}
	placements := make([]Placement, n)
	occupied := make(map[topology.CoreID]int)
	for i := 0; i < offset; i++ {
		occupied[cores[i%len(cores)]]++
	}
	for i := 0; i < n; i++ {
		c := cores[(i+offset)%len(cores)]
		occupied[c]++
		placements[i] = Placement{Core: c, Oversubscribed: n+offset > len(cores)}
	}
	// Mark HT sharing: a thread shares L2 with its sibling if the sibling
	// core is also occupied.
	for i := range placements {
		sib, ok := topo.SiblingOf(placements[i].Core)
		if !ok {
			continue
		}
		if occupied[sib] > 0 || occupied[placements[i].Core] > 1 {
			placements[i].HTShared = true
		}
	}
	return placements
}

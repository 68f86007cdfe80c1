package experiments

// Extension experiments beyond the paper's evaluation: the Memory Mode the
// paper describes but does not benchmark (Section 2.1), the hybrid
// PMEM-DRAM design it names as future work (Sections 5.2 and 9), the
// price/performance argument of Section 7 made quantitative, and the wear /
// write-amplification accounting Section 2.1 alludes to.

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/ssb"
	"repro/internal/units"
	"repro/internal/workload"
)

func init() {
	register("ext01", "Extension: Memory Mode working-set sweep (Section 2.1)", extMemoryMode)
	registerWithInputs("ext02", "Extension: hybrid PMEM tables + DRAM indexes (Sections 5.2, 9)", ssbInputs, extHybrid)
	registerWithInputs("ext03", "Extension: price/performance of PMEM vs DRAM (Section 7)", ssbInputs, extPrice)
	register("ext04", "Extension: media write amplification and wear (Sections 2.1, 4)", extWear)
}

// extMemoryMode sweeps the working-set size of an 18-thread read on a
// Memory Mode region: DRAM speed while it fits the cache, PMEM speed beyond.
func extMemoryMode(cfg Config) ([]Table, error) {
	t := Table{ID: "ext1", Title: "Memory Mode: 18-thread read vs working set", Unit: "GB/s",
		Header: "working set", Cols: []string{"bandwidth"},
		Paper: "Section 2.1 describes the mode (DRAM as inaccessible L4 cache, no persistence) but does not benchmark it"}
	for _, size := range []int64{40 << 30, 86 << 30, 160 << 30, 300 << 30, 700 << 30} {
		if err := cfg.Err(); err != nil {
			return nil, err
		}
		m := machine.MustNew(cfg.MachineConfig())
		r, err := m.AllocMemoryMode("ws", 0, size)
		if err != nil {
			return nil, err
		}
		bw, err := workload.Run(m, workload.Spec{
			Name: "mm", Dir: access.Read, Pattern: access.SeqIndividual,
			AccessSize: 4096, Threads: 18, Policy: cpu.PinCores,
			Region: r, TotalBytes: 40 * units.GB,
		})
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{
			Label:  fmt.Sprintf("%d GiB", size>>30),
			Values: []float64{bw / 1e9},
		})
	}
	return []Table{t}, nil
}

// extHybrid compares the PMEM-only handcrafted engine against the hybrid
// variant (DRAM indexes) and all-DRAM, on the probe-heavy Q2.1 and Q3.1.
func extHybrid(cfg Config) ([]Table, error) {
	data := dataAt(cfg.SF)
	t := Table{ID: "ext2", Title: "Handcrafted SSB: PMEM-only vs hybrid vs DRAM-only (sf 100)", Unit: "s",
		Header: "query", Cols: []string{"PMEM-only", "hybrid", "DRAM-only"},
		Paper: "future work in the paper; random probes dominate, so DRAM indexes recover most of the gap"}

	mk := func(device access.DeviceClass, hybrid bool) (*aware.Engine, error) {
		m := machine.MustNew(cfg.MachineConfig())
		return aware.New(m, data, aware.Options{
			Device: device, Threads: 36, Sockets: 2, Pinning: cpu.PinCores,
			NUMAAware: true, TargetSF: 100, HybridDims: hybrid,
		})
	}
	pmem, err := mk(access.PMEM, false)
	if err != nil {
		return nil, err
	}
	hybrid, err := mk(access.PMEM, true)
	if err != nil {
		return nil, err
	}
	dram, err := mk(access.DRAM, false)
	if err != nil {
		return nil, err
	}
	for _, id := range []string{"Q2.1", "Q3.1", "Q4.1"} {
		q, err := ssb.QueryByID(id)
		if err != nil {
			return nil, err
		}
		var vals []float64
		for _, e := range []*aware.Engine{pmem, hybrid, dram} {
			run, err := e.Run(q)
			if err != nil {
				return nil, err
			}
			vals = append(vals, run.Seconds)
		}
		t.Series = append(t.Series, Series{Label: id, Values: vals})
	}
	return []Table{t}, nil
}

// extPrice makes Section 7's cost argument quantitative with the paper's
// own prices: $575 per 128 GB PMEM DIMM, ~$700 per 64 GB DRAM DIMM.
func extPrice(cfg Config) ([]Table, error) {
	data := dataAt(cfg.SF)
	const (
		pmemDollarsPerDIMM = 575.0 // 128 GB
		dramDollarsPerDIMM = 700.0 // 64 GB
		systemPMEMDIMMs    = 12
	)
	pmemCost := pmemDollarsPerDIMM * systemPMEMDIMMs // 1.5 TB
	dramCost := dramDollarsPerDIMM * (1536.0 / 64)   // hypothetical 1.5 TB of DRAM

	q, err := ssb.QueryByID("Q2.1")
	if err != nil {
		return nil, err
	}
	secs := map[access.DeviceClass]float64{}
	for _, dev := range []access.DeviceClass{access.PMEM, access.DRAM} {
		m := machine.MustNew(cfg.MachineConfig())
		e, err := aware.New(m, data, aware.Options{Device: dev, Threads: 36,
			Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
		if err != nil {
			return nil, err
		}
		run, err := e.Run(q)
		if err != nil {
			return nil, err
		}
		secs[dev] = run.Seconds
	}
	perfRatio := secs[access.PMEM] / secs[access.DRAM]
	costRatio := dramCost / pmemCost

	t := Table{ID: "ext3", Title: "Price/performance, 1.5 TB capacity (paper's Section 7 prices)", Unit: "mixed",
		Header: "metric", Cols: []string{"value"},
		Paper: "paper: 1.5 TB PMEM ~$6900 vs DRAM ~$16800 (2.4x) while only 1.6x slower"}
	t.Series = []Series{
		{Label: "PMEM capacity cost [$]", Values: []float64{pmemCost}},
		{Label: "DRAM capacity cost [$]", Values: []float64{dramCost}},
		{Label: "cost ratio (DRAM/PMEM)", Values: []float64{costRatio}},
		{Label: "Q2.1 slowdown (PMEM/DRAM)", Values: []float64{perfRatio}},
		{Label: "price-perf advantage", Values: []float64{costRatio / perfRatio}},
	}
	return []Table{t}, nil
}

// extWear reports the media write amplification the wear counters observe
// for characteristic write workloads — the quantity that ages Optane.
func extWear(cfg Config) ([]Table, error) {
	t := Table{ID: "ext4", Title: "Media write amplification by workload (70 GB written)", Unit: "x",
		Header: "workload", Cols: []string{"media/app bytes"},
		Paper: "Section 4.4 observed up to 10x internal amplification for far writes"}
	cases := []struct {
		label   string
		pattern access.Pattern
		size    int64
		threads int
		far     bool
	}{
		{"4 KiB individual, 4 threads", access.SeqIndividual, 4096, 4, false},
		{"4 KiB individual, 36 threads", access.SeqIndividual, 4096, 36, false},
		{"64 B grouped, 36 threads", access.SeqGrouped, 64, 36, false},
		{"64 B individual, 36 threads", access.SeqIndividual, 64, 36, false},
		{"4 KiB far, 8 threads", access.SeqIndividual, 4096, 8, true},
		{"256 B random, 6 threads", access.Random, 256, 6, false},
	}
	for _, c := range cases {
		m := machine.MustNew(cfg.MachineConfig())
		dataSocket := 0
		if c.far {
			dataSocket = 1
		}
		r, err := m.AllocPMEM("wear", topoSock(dataSocket), 70*units.GB, machine.DevDax)
		if err != nil {
			return nil, err
		}
		total := int64(70 * units.GB)
		if c.pattern == access.Random {
			total = 10 * units.GB
		}
		_, err = workload.Run(m, workload.Spec{
			Name: "wear", Dir: access.Write, Pattern: c.pattern, AccessSize: c.size,
			Threads: c.threads, Policy: cpu.PinCores, Socket: 0, Region: r,
			TotalBytes: total,
		})
		if err != nil {
			return nil, err
		}
		wa := m.Wear(topoSock(dataSocket)).MediaBytesWritten() / float64(total)
		t.Series = append(t.Series, Series{Label: c.label, Values: []float64{wa}})
	}
	return []Table{t}, nil
}

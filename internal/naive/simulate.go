package naive

import (
	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/ssb"
)

// simulateBuild charges the dimension scans plus the chained-map node
// writes: small random writes, the pattern Section 4.1 warns about.
func (e *Engine) simulateBuild(dims []ssb.DimFacts) (float64, error) {
	if len(dims) == 0 {
		return 0, nil
	}
	placements := e.placementsFor(len(dims))
	e.streamArena.Reset()
	streams := e.streamBuf[:0]
	for i, ds := range dims {
		scale := e.dimScale[ds.Name]
		rows := float64(e.dimRowsOf(ds.Name)) * scale
		entries := float64(ds.Entries) * scale
		labels := e.buildLabelsFor(ds.Name)
		scan := e.streamArena.Alloc()
		*scan = machine.Stream{
			Label:      labels[0],
			Placement:  placements[i],
			Policy:     cpu.PinNUMA,
			Region:     e.tableRegion,
			Dir:        access.Read,
			Pattern:    access.SeqIndividual,
			AccessSize: 4096,
			Bytes:      maxf(rows*8, 4096),
			CPUPerByte: (rows * ScanCPUPerValue) / maxf(rows*8, 4096),
		}
		build := e.streamArena.Alloc()
		*build = machine.Stream{
			Label:      labels[1],
			Placement:  placements[i],
			Policy:     cpu.PinNUMA,
			Region:     e.tableRegion,
			Dir:        access.Write,
			Pattern:    access.Random,
			AccessSize: ChaseBytes,
			Bytes:      maxf(entries*MapBytesPerEntry, ChaseBytes),
			CPUPerByte: (entries * ProbeCPU) / maxf(entries*MapBytesPerEntry, ChaseBytes),
			Dependent:  true,
		}
		streams = append(streams, scan, build)
	}
	e.streamBuf = streams
	res, err := e.m.Run(streams)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

func (e *Engine) dimRowsOf(name string) int {
	switch name {
	case "date":
		return len(e.data.Date)
	case "customer":
		return len(e.data.Customer)
	case "supplier":
		return len(e.data.Supplier)
	default:
		return len(e.data.Part)
	}
}

// simulatePipeline charges the fact-side column scan, the hash-join stages
// (probes + reference-segment gathers + materialization), and the final
// aggregate. Stages are pipeline breakers and run sequentially, as Hyrise's
// operators do.
func (e *Engine) simulatePipeline(q ssb.Query, stages []joinStage, finalRows int64) (float64, Stats, error) {
	rows := float64(e.data.Rows())
	stats := Stats{}
	var total float64

	// Stage 0: fact-local predicate column scans (quantity, discount for
	// flight 1; always at least the first join key column).
	predCols := 0.0
	if q.LOFilter != nil {
		predCols = 2
	}
	if predCols > 0 {
		scanBytes := rows * 4 * predCols * e.factScale
		stats.ColumnBytesScanned += int64(scanBytes)
		sec, err := e.runSpread("scan-pred", access.Read, access.SeqIndividual, 4096,
			scanBytes, rows*predCols*ScanCPUPerValue*e.factScale, false)
		if err != nil {
			return 0, stats, err
		}
		total += sec
	}

	for _, st := range stages {
		probesIn := float64(st.probesIn) * e.factScale
		scale := e.dimScale[st.dim]
		mapBytes := float64(st.mapEntries) * scale * MapBytesPerEntry
		miss := cacheMissRate(mapBytes)

		var inputBytes float64
		var inputPattern access.Pattern
		var inputSize int64
		if st.first {
			// First join reads the key column sequentially.
			inputBytes = rows * 4 * e.factScale
			inputPattern = access.SeqIndividual
			inputSize = 4096
		} else {
			// Later joins gather the key column through the previous stage's
			// position list: random 64 B reads into a column far larger than
			// the LLC (uncached).
			inputBytes = probesIn * ChaseBytes
			inputPattern = access.Random
			inputSize = ChaseBytes
			stats.GatherBytes += int64(inputBytes)
		}
		stats.ColumnBytesScanned += int64(inputBytes)

		probeBytes := probesIn * ChasesPerProbe * ChaseBytes * miss
		stats.Probes += int64(probesIn)
		matBytes := float64(st.survivors) * e.factScale * MaterializeBytesPerRow
		stats.MaterializedBytes += int64(matBytes)

		sec, err := e.runStage(e.joinNameFor(st.dim), stageTraffic{
			inputBytes:   inputBytes,
			inputPattern: inputPattern,
			inputSize:    inputSize,
			inputCPU:     probesIn * ScanCPUPerValue,
			probeBytes:   probeBytes,
			probeCPU:     probesIn * ProbeCPU,
			matBytes:     matBytes,
			matCPU:       float64(st.survivors) * e.factScale * MaterializeCPUPerRow,
		})
		if err != nil {
			return 0, stats, err
		}
		total += sec
	}

	// Aggregate: read the final intermediate, update the (small, mostly
	// cached) group hash table.
	final := float64(finalRows) * e.factScale
	if final > 0 {
		sec, err := e.runStage("aggregate", stageTraffic{
			inputBytes:   final * MaterializeBytesPerRow,
			inputPattern: access.SeqIndividual,
			inputSize:    4096,
			inputCPU:     0,
			probeBytes:   final * ChaseBytes * 0.05,
			probeCPU:     final * AggCPUPerRow,
			matBytes:     0,
			matCPU:       0,
		})
		if err != nil {
			return 0, stats, err
		}
		total += sec
	}
	return total, stats, nil
}

type stageTraffic struct {
	inputBytes   float64
	inputPattern access.Pattern
	inputSize    int64
	inputCPU     float64
	probeBytes   float64
	probeCPU     float64
	matBytes     float64
	matCPU       float64
}

// runStage spreads one operator's traffic over the engine's threads and
// runs it on the machine.
func (e *Engine) runStage(name string, tr stageTraffic) (float64, error) {
	placements := e.placementsFor(e.opt.Threads)
	labels := e.labelsFor(name)
	n := float64(e.opt.Threads)
	e.streamArena.Reset()
	streams := e.streamBuf[:0]
	for t, pl := range placements {
		if tr.inputBytes > 0 {
			b := maxf(tr.inputBytes/n, float64(tr.inputSize))
			st := e.streamArena.Alloc()
			*st = machine.Stream{
				Label: labels.in[t], Placement: pl, Policy: cpu.PinNUMA,
				Region: e.tableRegion, Dir: access.Read, Pattern: tr.inputPattern,
				AccessSize: tr.inputSize, Bytes: b,
				CPUPerByte: tr.inputCPU / n / b,
				Dependent:  tr.inputPattern == access.Random,
			}
			streams = append(streams, st)
		}
		if tr.probeBytes > 0 {
			b := maxf(tr.probeBytes/n, ChaseBytes)
			st := e.streamArena.Alloc()
			*st = machine.Stream{
				Label: labels.probe[t], Placement: pl, Policy: cpu.PinNUMA,
				Region: e.tableRegion, Dir: access.Read, Pattern: access.Random,
				AccessSize: ChaseBytes, Bytes: b,
				CPUPerByte: tr.probeCPU / n / b,
				Dependent:  true,
			}
			streams = append(streams, st)
		}
		if tr.matBytes > 0 {
			b := maxf(tr.matBytes/n, 64)
			st := e.streamArena.Alloc()
			*st = machine.Stream{
				Label: labels.mat[t], Placement: pl, Policy: cpu.PinNUMA,
				Region: e.tableRegion, Dir: access.Write, Pattern: access.SeqIndividual,
				AccessSize: 64, Bytes: b,
				CPUPerByte: tr.matCPU / n / b,
			}
			streams = append(streams, st)
		}
	}
	e.streamBuf = streams
	if len(streams) == 0 {
		return 0, nil
	}
	res, err := e.m.Run(streams)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// runSpread is runStage for a single read flow.
func (e *Engine) runSpread(name string, dir access.Direction, pattern access.Pattern, size int64, bytes, cpuSec float64, dependent bool) (float64, error) {
	return e.runStage(name, stageTraffic{
		inputBytes: bytes, inputPattern: pattern, inputSize: size, inputCPU: cpuSec,
	})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

package aware

import (
	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/dash"
	"repro/internal/machine"
	"repro/internal/ssb"
)

// simulateBuild charges the index-construction traffic: each active socket
// scans its replicated dimension tables and writes the Dash segments
// (random 256 B writes — bucket granularity).
func (e *Engine) simulateBuild(indexes []*dimIndex) (float64, error) {
	if len(indexes) == 0 {
		return 0, nil
	}
	e.streamArena.Reset()
	streams := e.streamBuf[:0]
	for s := 0; s < e.activeSockets(); s++ {
		placements := e.buildPlacementsFor(e.factRegion[s].Socket, len(indexes))
		for i, ix := range indexes {
			scale := e.dimScaleOf(ix.name)
			scanBytes := float64(dimRows(e.data, ix.name)) * 200 * scale
			writeBytes := float64(ix.buildStats.BucketWrites) * dash.BucketBytes * scale
			if writeBytes < dash.BucketBytes {
				writeBytes = dash.BucketBytes
			}
			cpuSec := float64(ix.entries) * scale * 200e-9
			scan := e.streamArena.Alloc()
			*scan = machine.Stream{
				Label:      e.labelFor('b', ix.name, s, -1, 0),
				Placement:  placements[i],
				Policy:     e.pinPolicy(),
				Region:     e.dimRegion[s],
				Dir:        access.Read,
				Pattern:    access.SeqIndividual,
				AccessSize: 4096,
				Bytes:      maxf(scanBytes, 4096),
				CPUPerByte: cpuSec / maxf(scanBytes, 4096),
			}
			build := e.streamArena.Alloc()
			*build = machine.Stream{
				Label:      e.labelFor('i', ix.name, s, -1, 0),
				Placement:  placements[i],
				Policy:     e.pinPolicy(),
				Region:     e.dimRegion[s],
				Dir:        access.Write,
				Pattern:    access.Random,
				AccessSize: dash.BucketBytes,
				Bytes:      writeBytes,
			}
			streams = append(streams, scan, build)
		}
	}
	e.streamBuf = streams
	res, err := e.m.Run(streams)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

func dimRows(d *ssb.Data, name string) int {
	switch name {
	case "customer":
		return len(d.Customer)
	case "supplier":
		return len(d.Supplier)
	default:
		return len(d.Part)
	}
}

// simulateFactPhase charges the dominant phase: the parallel fact-table scan
// with Dash probes and aggregation.
func (e *Engine) simulateFactPhase(q ssb.Query, indexes []*dimIndex, qualifying int64, groups int, extra []*machine.Stream) (float64, Stats, error) {
	rows := int64(e.data.Rows())
	stats := Stats{
		TuplesScanned:  int64(float64(rows) * e.factScale),
		BytesScanned:   int64(float64(rows) * e.factScale * ssb.TupleBytes),
		QualifyingRows: int64(float64(qualifying) * e.factScale),
		Groups:         groups,
	}

	placements := e.threadsPlacement()
	e.streamArena.Reset()
	streams := e.streamBuf[:0]

	// Per-thread CPU: decode + predicates + aggregation updates, spread over
	// the scanned bytes.
	scanCPUPerByte := (ScanCPUPerRow + AggCPUPerRow*float64(qualifying)/float64(rows)) / ssb.TupleBytes

	for s := 0; s < e.activeSockets(); s++ {
		n := len(placements[s])
		if n == 0 {
			continue
		}
		scanBytesSocket := float64(stats.BytesScanned) * e.shareOf(s)
		for t := 0; t < n; t++ {
			pl := placements[s][t]
			perThread := scanBytesSocket / float64(n)
			e.addSplitStreams(&streams, splitSpec{
				kind:       's',
				sock:       s,
				thread:     t,
				placement:  pl,
				dir:        access.Read,
				pattern:    access.SeqIndividual,
				accessSize: 4096,
				bytes:      perThread,
				cpuPerByte: scanCPUPerByte,
				nearRegion: e.factRegion[s],
				farRegion:  e.factRegionFar(s),
			})
		}

		for _, ix := range indexes {
			probes := float64(ix.probeReads) // fact-phase bucket loads
			logical := probesLogical(ix)
			// Cache footprint at target scale: the filtered entries grow with
			// the dimension's cardinality; ~32 B of segment space per record
			// at Dash's typical load factor.
			missRate := cacheMissRate(float64(ix.entries) * e.dimScaleOf(ix.name) * 32)
			if missRate < 0.05 {
				missRate = 0.05
			}
			probeBytesSocket := probes * dash.BucketBytes * missRate * e.factScale / float64(e.activeSockets())
			probeCPUSocket := logical * ProbeCPU * e.factScale / float64(e.activeSockets())
			stats.Probes += int64(logical * e.factScale / float64(e.activeSockets()))
			stats.ProbeBytes += int64(probeBytesSocket)
			for t := 0; t < n; t++ {
				pl := placements[s][t]
				bytes := probeBytesSocket / float64(n)
				if bytes < dash.BucketBytes {
					bytes = dash.BucketBytes
				}
				e.addSplitStreams(&streams, splitSpec{
					kind:       'p',
					name:       ix.name,
					sock:       s,
					thread:     t,
					placement:  pl,
					dir:        access.Read,
					pattern:    access.Random,
					accessSize: dash.BucketBytes,
					bytes:      bytes,
					cpuPerByte: probeCPUSocket / float64(n) / bytes,
					dependent:  true,
					nearRegion: e.dimRegion[s],
					farRegion:  e.dimRegionFar(s),
				})
			}
		}
	}

	streams = append(streams, extra...)
	e.streamBuf = streams
	res, err := e.m.Run(streams)
	if err != nil {
		return 0, stats, err
	}
	e.lastFactRun = res
	return res.Elapsed, stats, nil
}

// probesLogical recovers the number of logical probes from the index's
// fact-phase bucket reads: hits read ~2 buckets, misses 2 (plus stash when
// spilled); use the recorded reads divided by the average cost.
func probesLogical(ix *dimIndex) float64 {
	return float64(ix.probeReads) / 2
}

type splitSpec struct {
	kind       byte   // labelFor kind: 's' scan, 'p' probe
	name       string // dimension name for probes
	sock       int
	thread     int
	placement  cpu.Placement
	dir        access.Direction
	pattern    access.Pattern
	accessSize int64
	bytes      float64
	cpuPerByte float64
	dependent  bool
	nearRegion *machine.Region
	farRegion  *machine.Region
}

// addSplitStreams emits the stream near-only (NUMA-aware) or split 50/50
// between the near and far partitions (the pre-optimization "2-Socket" row
// of Table 1, where data placement ignores NUMA).
func (e *Engine) addSplitStreams(streams *[]*machine.Stream, sp splitSpec) {
	mk := func(variant byte, region *machine.Region, bytes float64) *machine.Stream {
		st := e.streamArena.Alloc()
		*st = machine.Stream{
			Label:      e.labelFor(sp.kind, sp.name, sp.sock, sp.thread, variant),
			Placement:  sp.placement,
			Policy:     e.pinPolicy(),
			Region:     region,
			Dir:        sp.dir,
			Pattern:    sp.pattern,
			AccessSize: sp.accessSize,
			Bytes:      bytes,
			CPUPerByte: sp.cpuPerByte,
			Dependent:  sp.dependent,
		}
		return st
	}
	if e.opt.NUMAAware || e.activeSockets() == 1 || sp.farRegion == nil {
		*streams = append(*streams, mk(0, sp.nearRegion, sp.bytes))
		return
	}
	*streams = append(*streams,
		mk('n', sp.nearRegion, sp.bytes/2),
		mk('f', sp.farRegion, sp.bytes/2),
	)
}

func (e *Engine) factRegionFar(s int) *machine.Region {
	if e.activeSockets() < 2 {
		return nil
	}
	return e.factRegion[(s+1)%e.activeSockets()]
}

func (e *Engine) dimRegionFar(s int) *machine.Region {
	if e.activeSockets() < 2 {
		return nil
	}
	return e.dimRegion[(s+1)%e.activeSockets()]
}

// simulateMerge is the final single-threaded combination of per-thread
// partial aggregates: pure CPU over tiny data.
func (e *Engine) simulateMerge(groups int) float64 {
	return float64(groups*e.opt.Threads) * 50e-9
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

package experiments

import (
	"sync"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/units"
	"repro/internal/workload"
)

// ext05's fact table: 70 GB of ext05Tuples tuples.
const (
	ext05Tuples     = 200_000
	ext05TotalBytes = 70 * units.GB
)

// ext05Cases are the partitioning schemes and key skews ext05 compares.
var ext05Cases = []struct {
	label  string
	scheme partition.Scheme
	skew   float64
}{
	{"round-robin / uniform", partition.RoundRobin, 0},
	{"round-robin / zipf", partition.RoundRobin, 1.1},
	{"hash / zipf", partition.ByHash, 1.1},
	{"range / uniform", partition.ByRange, 0},
	{"range / zipf", partition.ByRange, 1.1},
}

// ext05Assignments partitions each case's keys across the two sockets,
// once per process: the keys and assignments depend only on constants
// (ZipfKeys' math.Pow per key dominated a warm ext05 run). Only the
// per-socket counts are kept, not the per-tuple sockets.
var ext05Assignments = sync.OnceValues(func() ([]partition.Assignment, error) {
	inputBuilds.ext05.Add(1)
	keysBySkew := map[float64][]uint64{}
	asgs := make([]partition.Assignment, len(ext05Cases))
	for i, c := range ext05Cases {
		keys, ok := keysBySkew[c.skew]
		if !ok {
			keys = partition.ZipfKeys(ext05Tuples, 1<<24, c.skew, 11)
			keysBySkew[c.skew] = keys
		}
		asg, err := partition.Partition(keys, 2, c.scheme)
		if err != nil {
			return nil, err
		}
		asg.Of = nil
		asgs[i] = asg
	}
	return asgs, nil
})

// ext05Inputs builds ext05Assignments.
func ext05Inputs(Config) error {
	_, err := ext05Assignments()
	return err
}

func init() {
	registerWithInputs("ext05", "Extension: partitioning schemes under skew (Sections 3.5, 6.2)", ext05Inputs, extPartition)
}

// extPartition quantifies Insight #5's "evenly distributed data sets":
// partition a 70 GB fact table across the two sockets with each scheme,
// under uniform and Zipf-skewed keys, then measure the near-only parallel
// scan on the machine. Imbalanced partitions leave one socket's bandwidth
// idle while the other finishes.
func extPartition(cfg Config) ([]Table, error) {
	t := Table{ID: "ext5", Title: "70 GB near-only scan under partitioning scheme and key skew", Unit: "GB/s",
		Header: "scheme/skew", Cols: []string{"imbalance", "scan GB/s"},
		Paper: "Insight #5: stripe evenly; the paper defers skew handling to partitioning research"}

	asgs, err := ext05Assignments()
	if err != nil {
		return nil, err
	}
	for i, c := range ext05Cases {
		asg := asgs[i]
		m := machine.MustNew(cfg.MachineConfig())
		var specs []workload.Spec
		for s := 0; s < 2; s++ {
			bytes := int64(float64(ext05TotalBytes) * float64(asg.Counts[s]) / float64(ext05Tuples))
			if bytes < 4096 {
				bytes = 4096
			}
			r, err := m.AllocPMEM("part", topoSock(s), bytes, machine.DevDax)
			if err != nil {
				return nil, err
			}
			specs = append(specs, workload.Spec{
				Name: "scan", Dir: access.Read, Pattern: access.SeqIndividual,
				AccessSize: 4096, Threads: 18, Policy: cpu.PinCores,
				Socket: topoSock(s), Region: r, TotalBytes: bytes,
			})
		}
		res, err := workload.RunMixed(m, specs...)
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{Label: c.label,
			Values: []float64{asg.Imbalance(), workload.GBs(res.TotalBytes / res.Elapsed)}})
	}
	return []Table{t}, nil
}

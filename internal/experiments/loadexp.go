package experiments

import (
	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/cpu"
	"repro/internal/machine"
)

func init() {
	registerWithInputs("ext06", "Extension: bulk data import at sf 100 (Section 4's motivating workload)", ssbDataInputs, extLoad)
}

// extLoad times the initial 76.8 GB import of the SSB database at different
// write-thread counts, on PMEM and DRAM: Insight #7 in application form.
func extLoad(cfg Config) ([]Table, error) {
	data := dataAt(cfg.SF)
	t := Table{ID: "ext6", Title: "SSB sf 100 bulk import: seconds by write threads/socket", Unit: "s",
		Header: "threads/socket", Cols: []string{"PMEM", "DRAM"},
		Paper: "Section 4: data import is THE write-heavy OLAP phase; 4-6 threads saturate PMEM writes"}
	for _, threads := range []int{2, 4, 6, 12, 18, 36} {
		var vals []float64
		for _, dev := range []access.DeviceClass{access.PMEM, access.DRAM} {
			m := machine.MustNew(cfg.MachineConfig())
			e, err := aware.New(m, data, aware.Options{Device: dev, Threads: 36,
				Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
			if err != nil {
				return nil, err
			}
			rep, err := e.SimulateLoad(threads)
			if err != nil {
				return nil, err
			}
			vals = append(vals, rep.Seconds)
		}
		t.Series = append(t.Series, Series{Label: intLabels([]int{threads})[0], Values: vals})
	}
	return []Table{t}, nil
}

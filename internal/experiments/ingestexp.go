package experiments

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/ssb"
)

func init() {
	registerWithInputs("ext07", "Extension: query latency under concurrent ingestion (Section 5.1)", ssbInputs, extIngest)
}

// extIngest runs Q2.1 (probe-heavy) and Q1.1 (scan-bound) while 0-6 ingest
// writers per socket append new data: Figure 11's mixed-workload
// interference expressed at the application level, and the quantitative
// case for Insight #11's "serialize PMEM access when possible".
func extIngest(cfg Config) ([]Table, error) {
	data := dataAt(cfg.SF)
	t := Table{ID: "ext7", Title: "Query seconds and ingest GB/s vs concurrent writers/socket (PMEM, sf 100)", Unit: "mixed",
		Header: "writers/socket", Cols: []string{"Q1.1 [s]", "Q2.1 [s]", "ingest GB/s"},
		Paper: "Section 5.1: queries run while data is ingested; both sides lose bandwidth"}

	m := machine.MustNew(cfg.MachineConfig())
	e, err := aware.New(m, data, aware.Options{Device: access.PMEM, Threads: 30,
		Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
	if err != nil {
		return nil, err
	}
	q11, err := ssb.QueryByID("Q1.1")
	if err != nil {
		return nil, err
	}
	q21, err := ssb.QueryByID("Q2.1")
	if err != nil {
		return nil, err
	}
	for _, writers := range []int{0, 1, 3, 6} {
		r11, _, err := e.RunWithIngest(q11, writers)
		if err != nil {
			return nil, err
		}
		r21, ing, err := e.RunWithIngest(q21, writers)
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{
			Label:  fmt.Sprintf("%d", writers),
			Values: []float64{r11.Seconds, r21.Seconds, ing.Bandwidth / 1e9},
		})
	}
	return []Table{t}, nil
}

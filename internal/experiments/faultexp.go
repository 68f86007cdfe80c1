package experiments

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/ssb"
)

func init() {
	register("fault01", "Fault injection: mid-scan DIMM thermal throttle (media ramp-down + hysteresis)", faultThrottle)
	register("fault02", "Fault injection: PMEM channels offline during a scan", faultChannel)
	register("fault03", "Fault injection: UPI link degradation and outage on far reads", faultUPI)
	registerWithInputs("fault04", "Fault injection: SSB Q2.1 with and without placement re-planning", ssbInputs, faultReplan)
}

// faultMachineConfig returns this run's machine config with the plan
// attached. The plan rides inside machine.Config, so pmemd's
// content-addressed cache keys faulted runs separately from healthy ones.
func faultMachineConfig(cfg Config, planJSON string) (machine.Config, error) {
	plan, err := faults.Parse([]byte(planJSON))
	if err != nil {
		return machine.Config{}, fmt.Errorf("fault experiment: %w", err)
	}
	mc := cfg.MachineConfig()
	mc.Faults = plan
	return mc, nil
}

// measureScan runs the standard 4 KiB sequential-read scan at each thread
// count, one fresh machine per point so every point sees the plan from t=0.
func measureScan(cfg Config, planJSON string, threads []int) ([]float64, error) {
	var out []float64
	for _, thr := range threads {
		if err := cfg.Err(); err != nil {
			return out, err
		}
		mc := cfg.MachineConfig()
		if planJSON != "" {
			var err error
			mc, err = faultMachineConfig(cfg, planJSON)
			if err != nil {
				return out, err
			}
		}
		b, err := core.NewBench(mc)
		if err != nil {
			return out, err
		}
		v, err := b.Measure(core.Point{
			Class: access.PMEM, Dir: access.Read, Pattern: access.SeqIndividual,
			AccessSize: 4096, Threads: thr, Policy: cpu.PinCores,
		})
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

func faultThrottle(cfg Config) ([]Table, error) {
	threads := []int{4, 8, 18}
	if cfg.Quick {
		threads = []int{4, 18}
	}
	t := Table{ID: "fault01", Title: "Mid-scan DIMM throttle (socket 0, factor 0.3)", Unit: "GB/s",
		Header: "plan \\ threads", Cols: intLabels(threads),
		Paper: "no paper reference; robustness extension (deterministic fault plans)"}
	// A 70 GB scan takes a few virtual seconds; the throttle trips at t=0.5,
	// holds 2 s, and recovers with 2x hysteresis.
	const plan = `{"events":[{"type":"dimm-throttle","start":0.5,"duration":2,"ramp":0.25,"factor":0.3}]}`
	healthy, err := measureScan(cfg, "", threads)
	if err != nil {
		return nil, err
	}
	throttled, err := measureScan(cfg, plan, threads)
	if err != nil {
		return nil, err
	}
	t.Series = []Series{{Label: "healthy", Values: healthy}, {Label: "dimm-throttle", Values: throttled}}
	return []Table{t}, nil
}

func faultChannel(cfg Config) ([]Table, error) {
	threads := []int{4, 18}
	offline := []int{0, 1, 3, 5}
	if cfg.Quick {
		offline = []int{0, 3, 5}
	}
	t := Table{ID: "fault02", Title: "Channels offline on socket 0 for the whole scan", Unit: "GB/s",
		Header: "threads \\ channels off", Cols: intLabels(offline),
		Paper: "capacity scales with surviving channels; interleave re-stripes over them"}
	for _, thr := range threads {
		s := Series{Label: fmt.Sprintf("%d", thr)}
		for _, off := range offline {
			plan := ""
			if off > 0 {
				plan = fmt.Sprintf(`{"events":[{"type":"channel-offline","start":0,"channels":%d}]}`, off)
			}
			v, err := measureScan(cfg, plan, []int{thr})
			if err != nil {
				return nil, err
			}
			s.Values = append(s.Values, v[0])
		}
		t.Series = append(t.Series, s)
	}
	return []Table{t}, nil
}

func faultUPI(cfg Config) ([]Table, error) {
	factors := []float64{1, 0.5, 0.25, 0}
	t := Table{ID: "fault03", Title: "Far reads under UPI link degradation (factor 0 = outage, run pauses)", Unit: "GB/s",
		Header: "metric \\ link factor", Cols: []string{"1.0", "0.5", "0.25", "outage"},
		Paper: "full outage stalls the flow until recovery; the directory re-warms afterwards"}
	bw := Series{Label: "far-read bandwidth"}
	for _, f := range factors {
		if err := cfg.Err(); err != nil {
			return nil, err
		}
		plan := ""
		if f < 1 {
			// Degrade mid-run for one virtual second.
			plan = fmt.Sprintf(`{"events":[{"type":"upi-degrade","start":0.5,"duration":1,"from":0,"to":1,"factor":%g}]}`, f)
		}
		mc := cfg.MachineConfig()
		if plan != "" {
			var err error
			mc, err = faultMachineConfig(cfg, plan)
			if err != nil {
				return nil, err
			}
		}
		b, err := core.NewBench(mc)
		if err != nil {
			return nil, err
		}
		v, err := b.Measure(core.Point{
			Class: access.PMEM, Dir: access.Read, Pattern: access.SeqIndividual,
			AccessSize: 4096, Threads: 4, Policy: cpu.PinCores, Far: true, Warm: true,
		})
		if err != nil {
			return nil, err
		}
		bw.Values = append(bw.Values, v)
	}
	t.Series = []Series{bw}
	return []Table{t}, nil
}

// faultReplan runs SSB Q2.1 on the handcrafted engine three ways: healthy,
// under a channel-loss fault with the default equal split, and under the
// same fault after ReplanForFaults shifts scan work toward the healthy
// socket — the graceful-degradation row should land between the other two.
func faultReplan(cfg Config) ([]Table, error) {
	const plan = `{"events":[{"type":"channel-offline","start":0,"channels":4,"socket":0}]}`
	data := dataAt(cfg.SF)
	q, err := ssb.QueryByID("Q2.1")
	if err != nil {
		return nil, err
	}
	runQ := func(planJSON string, replan bool) (float64, float64, error) {
		if err := cfg.Err(); err != nil {
			return 0, 0, err
		}
		mc := cfg.MachineConfig()
		if planJSON != "" {
			mc, err = faultMachineConfig(cfg, planJSON)
			if err != nil {
				return 0, 0, err
			}
		}
		m, err := machine.New(mc)
		if err != nil {
			return 0, 0, err
		}
		e, err := aware.New(m, data, aware.Options{Threads: 36, Sockets: 2, NUMAAware: true, TargetSF: 100})
		if err != nil {
			return 0, 0, err
		}
		if replan {
			if _, err := e.ReplanForFaults(); err != nil {
				return 0, 0, err
			}
		}
		run, err := e.Run(q)
		if err != nil {
			return 0, 0, err
		}
		return run.Seconds, e.LastFactBandwidth() / 1e9, nil
	}
	healthySec, healthyBW, err := runQ("", false)
	if err != nil {
		return nil, err
	}
	equalSec, equalBW, err := runQ(plan, false)
	if err != nil {
		return nil, err
	}
	replanSec, replanBW, err := runQ(plan, true)
	if err != nil {
		return nil, err
	}
	t := Table{ID: "fault04", Title: "SSB Q2.1, 4 of 6 channels lost on socket 0 (sf 100 scale)", Unit: "s / GB/s",
		Header: "placement \\ metric", Cols: []string{"query s", "fact GB/s"},
		Paper: "re-planned shares shift scan work to the healthy socket; achieved vs healthy bandwidth"}
	t.Series = []Series{
		{Label: "healthy", Values: []float64{healthySec, healthyBW}},
		{Label: "faulted, equal split", Values: []float64{equalSec, equalBW}},
		{Label: "faulted, re-planned", Values: []float64{replanSec, replanBW}},
	}
	return []Table{t}, nil
}

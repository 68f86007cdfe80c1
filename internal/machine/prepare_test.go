package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/fluid"
	"repro/internal/topology"
)

// stepLog wraps a run model and records every solver step's flow rates,
// demands, weights and cost vectors. With fixed3 set it prepares with the
// fixed three-round write-share loop that Prepare ran before its early exit,
// the reference the exit must match bit for bit.
type stepLog struct {
	*runModel
	fixed3   bool
	prepares int
	steps    []string
}

func (l *stepLog) Prepare(now float64, flows []*fluid.Flow) {
	l.prepares++
	if !l.fixed3 {
		l.runModel.Prepare(now, flows)
		return
	}
	rm := l.runModel
	rm.now = now
	pop := rm.gather()
	for iter := 0; iter < 3; iter++ {
		rm.computeCosts(pop)
		rm.solver.Solve(rm.flows, rm.Resources())
		rm.prepSolves++
		rm.updateWriteShares()
	}
	rm.computeCosts(pop)
	rm.dirty = false
}

// Advance runs after the engine's solve, so it sees the step's final costs
// and rates. %x prints a float64 exactly.
func (l *stepLog) Advance(now, dt float64, flows []*fluid.Flow) {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x dt=%x", now, dt)
	for _, f := range l.flows {
		fmt.Fprintf(&b, " | %s rate=%x max=%x w=%x", f.Name, f.Rate, f.MaxRate, f.Weight)
		for _, c := range f.Costs {
			fmt.Fprintf(&b, " %s:%x", c.Resource.Name, c.PerByte)
		}
	}
	l.steps = append(l.steps, b.String())
	l.runModel.Advance(now, dt, flows)
}

// onSocket returns n pinned streams over r whose threads sit on socket,
// starting at its offset-th core.
func onSocket(m *Machine, r *Region, socket topology.SocketID, offset int, dir access.Direction, n int, bytes float64) []*Stream {
	var out []*Stream
	for i, pl := range cpu.AssignThreadsOffset(m.Topology(), cpu.PinCores, socket, n, offset) {
		out = append(out, &Stream{
			Label: fmt.Sprintf("%s-%v-s%d-%d", r.Name, dir, socket, offset+i), Placement: pl, Policy: cpu.PinCores,
			Region: r, Dir: dir, Pattern: access.SeqIndividual, AccessSize: 4096, Bytes: bytes,
		})
	}
	return out
}

// prepareCases are the populations the early exit must reproduce exactly:
// each builds its regions on m and returns two runs' streams, so the second
// run starts from a warmed run model.
var prepareCases = []struct {
	name   string
	faults string
	build  func(t *testing.T, m *Machine) [][]*Stream
}{
	{"read-only", "", func(t *testing.T, m *Machine) [][]*Stream {
		r := mustPMEM(t, m, "r", 0)
		uneven := append(onSocket(m, r, 0, 0, access.Read, 4, 2e9), onSocket(m, r, 0, 4, access.Read, 2, 1e9)...)
		return [][]*Stream{uneven, onSocket(m, r, 0, 0, access.Read, 3, 1e9)}
	}},
	{"write-only", "", func(t *testing.T, m *Machine) [][]*Stream {
		r := mustPMEM(t, m, "w", 0)
		return [][]*Stream{onSocket(m, r, 0, 0, access.Write, 8, 5e8), onSocket(m, r, 0, 0, access.Write, 2, 5e8)}
	}},
	{"mixed", "", func(t *testing.T, m *Machine) [][]*Stream {
		// Section 5.1: writers finish first, so the shares move to zero
		// mid-run while the readers keep going.
		r := mustPMEM(t, m, "rw", 0)
		mixed := append(onSocket(m, r, 0, 0, access.Read, 4, 4e9), onSocket(m, r, 0, 4, access.Write, 2, 5e8)...)
		return [][]*Stream{mixed, onSocket(m, r, 0, 0, access.Read, 2, 1e9)}
	}},
	{"far-contended", "", func(t *testing.T, m *Machine) [][]*Stream {
		// Reads from both sockets write directory updates to the media.
		r := mustPMEM(t, m, "far", 0)
		both := append(onSocket(m, r, 0, 0, access.Read, 4, 2e9), onSocket(m, r, 1, 0, access.Read, 4, 2e9)...)
		return [][]*Stream{both, both}
	}},
	{"dram-mixed", "", func(t *testing.T, m *Machine) [][]*Stream {
		r, err := m.AllocDRAM("d", 0, 8<<30)
		if err != nil {
			t.Fatal(err)
		}
		mixed := append(onSocket(m, r, 0, 0, access.Read, 4, 8e9), onSocket(m, r, 0, 4, access.Write, 2, 2e9)...)
		return [][]*Stream{mixed, mixed}
	}},
	{"memory-mode", "", func(t *testing.T, m *Machine) [][]*Stream {
		r, err := m.AllocMemoryMode("mm", 0, 300<<30)
		if err != nil {
			t.Fatal(err)
		}
		mixed := append(onSocket(m, r, 0, 0, access.Read, 4, 4e9), onSocket(m, r, 0, 4, access.Write, 2, 1e9)...)
		return [][]*Stream{mixed, onSocket(m, r, 0, 0, access.Read, 4, 2e9)}
	}},
	{"xpbuffer-degrade", `{"events":[{"type":"xpbuffer-degrade","start":0.02,"duration":0.05,"factor":0.25}]}`,
		func(t *testing.T, m *Machine) [][]*Stream {
			r := mustPMEM(t, m, "xpb", 0)
			mixed := append(onSocket(m, r, 0, 0, access.Read, 4, 2e9), onSocket(m, r, 0, 4, access.Write, 8, 2e8)...)
			return [][]*Stream{mixed, mixed}
		}},
}

func mustPMEM(t *testing.T, m *Machine, name string, s topology.SocketID) *Region {
	t.Helper()
	r, err := m.AllocPMEM(name, s, 64<<30, DevDax)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// loggedRuns runs a case on a fresh machine through a stepLog and returns
// the log, the results and the metrics snapshot.
func loggedRuns(t *testing.T, faults string, build func(*testing.T, *Machine) [][]*Stream, fixed3 bool) (*stepLog, []RunResult, string) {
	t.Helper()
	cfg := DefaultConfig()
	if faults != "" {
		cfg.Faults = faultPlan(t, faults)
	}
	m := MustNew(cfg)
	runs := build(t, m)
	m.rm = newRunModel(m, runs[0])
	l := &stepLog{runModel: m.rm, fixed3: fixed3}
	m.eng = fluid.NewEngine(l)
	var results []RunResult
	for _, streams := range runs {
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var snap strings.Builder
	m.Metrics().Snapshot().Fprint(&snap)
	return l, results, snap.String()
}

// TestPrepareEarlyExitExact: leaving the write-share fixed point once it
// stops moving (or never entering it without a media writer) gives the same
// costs, rates, results and counters, bit for bit, as the fixed three rounds.
func TestPrepareEarlyExitExact(t *testing.T) {
	for _, tc := range prepareCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refRes, refSnap := loggedRuns(t, tc.faults, tc.build, true)
			got, gotRes, gotSnap := loggedRuns(t, tc.faults, tc.build, false)
			if len(got.steps) != len(ref.steps) {
				t.Fatalf("%d steps, reference %d", len(got.steps), len(ref.steps))
			}
			for i := range ref.steps {
				if got.steps[i] != ref.steps[i] {
					t.Fatalf("step %d differs:\n got %s\nwant %s", i, got.steps[i], ref.steps[i])
				}
			}
			if !reflect.DeepEqual(gotRes, refRes) {
				t.Errorf("results differ:\n got %+v\nwant %+v", gotRes, refRes)
			}
			if gotSnap != refSnap {
				t.Errorf("metrics differ:\n got %s\nwant %s", gotSnap, refSnap)
			}
			if ref.costPasses != 4*ref.prepares || ref.prepSolves != 3*ref.prepares {
				t.Fatalf("reference did %d cost passes and %d solves in %d prepares",
					ref.costPasses, ref.prepSolves, ref.prepares)
			}
			t.Logf("%d prepares: %d cost passes, %d solves (reference %d, %d)",
				got.prepares, got.costPasses, got.prepSolves, ref.costPasses, ref.prepSolves)
			if got.costPasses > ref.costPasses || got.prepSolves > ref.prepSolves {
				t.Errorf("early exit did more work than the reference")
			}
		})
	}
}

// TestReadOnlyStepOneCostPass: a step without a media writer computes its
// costs once and runs no solve of its own; the engine's solve sets its rates.
func TestReadOnlyStepOneCostPass(t *testing.T) {
	l, _, _ := loggedRuns(t, "", prepareCases[0].build, false)
	if l.prepares < 2 {
		t.Fatalf("only %d prepares; the case should span several steps", l.prepares)
	}
	if l.costPasses != l.prepares || l.prepSolves != 0 {
		t.Errorf("%d prepares did %d cost passes and %d solves, want %d and 0",
			l.prepares, l.costPasses, l.prepSolves, l.prepares)
	}
}

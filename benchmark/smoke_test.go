package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// asMainEnv makes the test binary act as the benchmark command, so the
// smoke test can run it, and it can spawn itself as its children.
const asMainEnv = "BENCHMARK_RUN_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload untraced and traced with 1 s
// phases and shrunken key counts, checking the result line, the metric
// sets and the trace file.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the benchmark for every workload")
	}
	work := t.TempDir()
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", "2", "-seconds", "1", "-short",
				"-trace", trace, "-work", work)
			cmd.Env = append(os.Environ(), asMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s\n%s", w.name, trace, err, out, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct %v attempted %d failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Fatalf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
			if trace == "1" {
				checkTrace(t, filepath.Join(work, "traces", w.name+".trace.json"))
			}
		}
	}
	t.Logf("smoke run of %d workloads, untraced and traced, took %v", len(workloads), time.Since(start))
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	modules := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("%s: span %s at %g for %g", path, e.Name, e.Ts, e.Dur)
		}
		modules[e.Name] = true
	}
	for _, m := range []string{"experiments", "ssb", "naive", "aware", "machine", "doctor", "server", "sstcache", "fleet"} {
		if !modules[m] {
			t.Errorf("%s: no %s span", path, m)
		}
	}
}

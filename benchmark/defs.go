package main

import (
	"encoding/json"
	"io"
)

// metricDef is one reported metric. Bound is the share of the baseline
// median an end-to-end metric may worsen by before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user sees. Every workload reports all of them;
// see README.md for what each means on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's numbers, named by module. Every workload
// reports all of them.
func perLayer() []metricDef {
	var out []metricDef
	for _, id := range catalogIDs() {
		out = append(out, metricDef{Name: "experiments." + id + "_ms", Unit: "ms", Better: "lower"})
	}
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("machine.runs_per_catalog", "count", "lower")
	add("ssb.generate_ms", "ms", "lower")
	add("ssb.generate_allocs", "count", "lower")
	for _, eng := range []string{"naive", "aware"} {
		add(eng+".query_us", "us", "lower")
		add(eng+".query_warm_us", "us", "lower")
		add(eng+".query_allocs", "count", "lower")
	}
	add("machine.measure_us", "us", "lower")
	add("machine.measure_allocs", "count", "lower")
	add("doctor.diagnose_us", "us", "lower")
	add("doctor.seconds_per_diag", "s", "lower")
	add("server.key_us", "us", "lower")
	add("server.key_allocs", "count", "lower")
	add("server.encode_us", "us", "lower")
	add("server.encode_allocs", "count", "lower")
	add("server.request_us", "us", "lower")
	add("server.job_ms", "ms", "lower")
	add("server.queue_wait_ms", "ms", "lower")
	add("server.lru_hit_ratio", "ratio", "higher")
	add("server.evictions", "count", "lower")
	add("server.rejected", "count", "lower")
	add("server.coalesced", "count", "higher")
	add("sstcache.put_us", "us", "lower")
	add("sstcache.put_us_p99", "us", "lower")
	add("sstcache.get_us", "us", "lower")
	add("sstcache.get_miss_us", "us", "lower")
	add("sstcache.open_ms", "ms", "lower")
	add("sstcache.get_us.n1e2", "us", "lower")
	add("sstcache.get_us.n1e3", "us", "lower")
	add("sstcache.get_us.n1e4", "us", "lower")
	add("sstcache.flushes", "count", "lower")
	add("sstcache.compactions", "count", "lower")
	add("sstcache.segments", "count", "lower")
	add("sstcache.hit_ratio", "ratio", "higher")
	add("sstcache.disk_bytes_per_result_byte", "ratio", "lower")
	add("fleet.hop_us", "us", "lower")
	add("fleet.hedge_frac", "ratio", "lower")
	add("fleet.hedge_win_frac", "ratio", "higher")
	add("fleet.failovers", "count", "lower")
	add("fleet.balance", "ratio", "higher")
	add("loadgen.lat_tail_ms", "ms", "lower")
	add("loadgen.lag_p99_ms", "ms", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return out
}

// spec is the BENCHMARK.json document.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specLoad  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func writeSpec(w io.Writer) error {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, wl := range workloads {
		s.Workloads = append(s.Workloads, specLoad{Name: wl.name, Why: wl.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

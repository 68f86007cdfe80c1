package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/doctor"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/server"
	"repro/internal/simtrace"
	"repro/internal/ssb"
	"repro/internal/sstcache"
)

// The traced pass. The parent replays a sample of the workload's request
// stream through a fresh two-worker fleet, so every workload reports every
// serving layer; then a fresh "layers" child runs the catalogue entry by
// entry and times the public layer functions, feeding the stream and its
// answers to the serving-side ones.

// replayRate and replayRequests size the replay.
const (
	replayRate     = 150
	replayRequests = 300
)

// streamItem is one replayed request and its answer, handed to the layers
// child in a file.
type streamItem struct {
	Body   json.RawMessage `json:"body"`
	Answer json.RawMessage `json:"answer"`
}

func delta(before, after metrics.Snapshot, name string) float64 {
	a, _ := after.Get(name)
	b, _ := before.Get(name)
	return a - b
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func histMean(s metrics.Snapshot, name string) float64 {
	h, ok := s.GetHistogram(name)
	if !ok {
		return 0
	}
	return ratio(h.Sum, float64(h.Count()))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// servingTrace is a serving workload's traced pass: set up as for
// measuring, send the open loop untraced and then traced for the tracing
// overhead, then the layer pass over the open loop's stream.
func (p *parent) servingTrace() error {
	pl := makePlan(p.w, p.f.seed, p.sc())
	rec := simtrace.New()
	s, c, _, err := p.setUp(pl)
	if err != nil {
		return err
	}
	defer s.kill()
	defer c.close()
	module := "server"
	if p.w.stack == "fleet" {
		module = "fleet"
	}
	d := p.sc().openDur() / 2
	var sched1 []time.Duration
	for _, t := range pl.sched {
		if t < d {
			sched1 = append(sched1, t)
		}
	}
	untraced := openLoop(sched1, 2, "untraced-", sender(c, pl.open, p.w.want), nil)
	live := &spanSink{proc: rec.Process("loadgen " + p.w.name), epoch: p.epoch, module: module}
	sched2 := poissonSchedule(p.f.seed^0x7ace, p.w.openRate, d)
	traced := openLoop(sched2, 2, "traced-", sender(c, pl.closed, p.w.want), live)
	p.res.count(untraced)
	p.res.count(traced)
	c.close()
	if _, err := s.quit(); err != nil {
		return err
	}
	lat := latencyMS(untraced)
	p.vals["loadgen.lat_tail_ms"] = nearestRank(lat, tailQuantile(len(lat)))
	p.vals["trace.overhead_frac"] = nearestRank(latencyMS(traced), 0.5)/nearestRank(lat, 0.5) - 1
	stream := pl.open
	if len(stream) > replayRequests {
		stream = stream[:replayRequests]
	}
	return p.layerPass(stream, rec)
}

// layerPass replays stream, runs the layers child on it, and writes the
// workload's trace: the parent's client spans merged with the child's.
func (p *parent) layerPass(stream []request, rec *simtrace.Recorder) error {
	items, err := p.replay(stream, rec)
	if err != nil || p.res.Failed > 0 {
		return err
	}
	streamPath := filepath.Join(p.root, "stream.json")
	b, err := json.Marshal(items)
	if err != nil {
		return err
	}
	if err := os.WriteFile(streamPath, b, 0o644); err != nil {
		return err
	}
	o, cr, err := p.spawnOut("layers", "-stream", streamPath)
	if err != nil {
		return err
	}
	for k, v := range o.Metrics {
		p.vals[k] = v
	}
	own := filepath.Join(p.root, "loadgen.trace.json")
	if err := writeTrace(own, rec); err != nil {
		return err
	}
	return mergeTraces(filepath.Join(p.f.work, "traces", p.w.name+".trace.json"), own, filepath.Join(cr.dir, "trace.json"))
}

// replay sends the stream open-loop through a fresh two-worker fleet and
// derives the serving layers' counters from its registries.
func (p *parent) replay(stream []request, rec *simtrace.Recorder) ([]streamItem, error) {
	s, err := p.startSUT("fleet")
	if err != nil {
		return nil, err
	}
	defer s.kill()
	c := newClient(s.front)
	defer c.close()

	dur := time.Duration(float64(len(stream)) / replayRate * float64(time.Second))
	sched := poissonSchedule(p.f.seed^0x4e9a, replayRate, dur)
	items := make([]streamItem, len(sched))
	var mu sync.Mutex
	stored := map[string]int{}
	send := func(i int, id string) outcome {
		r := stream[i%len(stream)]
		tier, body, err := c.run(r.body, r.ident, id)
		items[i] = streamItem{Body: r.body, Answer: body}
		mu.Lock()
		stored[r.ident] = len(body)
		mu.Unlock()
		return outcome{tier: tier, err: err}
	}
	sink := &spanSink{proc: rec.Process("loadgen replay"), epoch: p.epoch, module: "fleet"}
	shots := openLoop(sched, 2, "replay-", send, sink)
	p.res.count(shots)
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	c.close()
	if _, err := s.quit(); err != nil {
		return nil, err
	}
	p.vals["loadgen.lag_p99_ms"] = nearestRank(lagMS(shots), 0.99)

	srv := snap.merged()
	var segBytes, segs float64
	for _, w := range snap.Workers {
		b, _ := w.Get("sstcache_segment_bytes")
		m, _ := w.Get("sstcache_memtable_bytes")
		n, _ := w.Get("sstcache_segments")
		segBytes += b + m
		segs += n
	}
	get := func(name string) float64 { v, _ := srv.Get(name); return v }
	m := p.vals
	m["server.request_us"] = 1e6 * histMean(srv, "server_request_duration_seconds")
	m["server.job_ms"] = 1e3 * ratio(get("server_job_seconds"), get("server_jobs_done"))
	m["server.queue_wait_ms"] = 1e3 * histMean(srv, "server_job_queue_wait_seconds")
	m["server.lru_hit_ratio"] = ratio(get("server_cache_hits"), get("server_cache_hits")+get("server_cache_misses"))
	m["server.evictions"] = get("server_cache_evictions")
	m["server.rejected"] = get("server_rejected")
	m["server.coalesced"] = get("server_coalesced")
	m["doctor.seconds_per_diag"] = ratio(get("doctor_seconds"), get("doctor_diagnoses_total"))
	m["sstcache.flushes"] = get("sstcache_flushes")
	m["sstcache.compactions"] = get("sstcache_compactions")
	m["sstcache.segments"] = segs
	m["sstcache.hit_ratio"] = ratio(get("sstcache_hits"), get("sstcache_hits")+get("sstcache_misses"))
	var unique float64
	for _, n := range stored {
		unique += float64(n)
	}
	m["sstcache.disk_bytes_per_result_byte"] = ratio(segBytes, unique)

	rs := *snap.Router
	rget := func(name string) float64 { v, _ := rs.Get(name); return v }
	m["fleet.hop_us"] = 1e6 * (histMean(rs, "fleet_request_duration_seconds") - histMean(srv, "server_request_duration_seconds"))
	var attempts, sq float64
	for i := range snap.Workers {
		x := rget(fmt.Sprintf("fleet.worker.w%d.requests", i))
		attempts += x
		sq += x * x
	}
	m["fleet.hedge_frac"] = ratio(rget("fleet_hedged_requests"), rget("fleet_requests"))
	m["fleet.hedge_win_frac"] = ratio(rget("fleet_hedge_wins"), attempts)
	m["fleet.failovers"] = rget("fleet_failovers")
	m["fleet.balance"] = ratio(attempts*attempts, float64(len(snap.Workers))*sq)
	return items, nil
}

// layerSpans records one span per timed call into a layer.
type layerSpans struct {
	proc  *simtrace.Process
	epoch time.Time
}

func (l layerSpans) span(module, fn, reqID string, start time.Time, d time.Duration) {
	l.proc.Thread(0, "layers")
	args := []simtrace.Arg{simtrace.S("fn", fn)}
	if reqID != "" {
		args = append(args, simtrace.S("request_id", reqID))
	}
	l.proc.Span(module, module, 0, start.Sub(l.epoch).Seconds(), d.Seconds(), args...)
}

// runLayers is the layers child: every catalogue entry once through
// Experiment.Run with a span each and its output checked against the
// golden, then timed calls into each layer.
func runLayers(a childArgs, streamPath string) (*childOut, error) {
	raw, err := os.ReadFile(streamPath)
	if err != nil {
		return nil, err
	}
	var items []streamItem
	if err := json.Unmarshal(raw, &items); err != nil {
		return nil, fmt.Errorf("%s: %w", streamPath, err)
	}
	out := newChildOut()
	rec := simtrace.New()
	snaps, err := catalogEntries(a, rec, out)
	if err != nil {
		return nil, err
	}
	ls := layerSpans{proc: rec.Process("layers"), epoch: a.epoch}
	data, err := probeGenerate(ls, out)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return probeEngines(data, ls, out) },
		func() error { return probeMachine(ls, out) },
		func() error { probeDoctor(snaps, ls, out); return nil },
		func() error { return probeKeys(items, ls, out) },
		func() error { return probeEncode(items, ls, out) },
		func() error { return probeStore(filepath.Join(a.dir, "probe-sst"), items, ls, out) },
		func() error { return probeScaling(filepath.Join(a.dir, "probe-scale"), a.seed, out) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return out, writeTrace(filepath.Join(a.dir, "trace.json"), rec)
}

// catalogEntries runs every entry once, checks the rendered catalogue
// against the golden, and returns each entry's counter snapshot.
func catalogEntries(a childArgs, rec *simtrace.Recorder, out *childOut) ([]metrics.Snapshot, error) {
	proc := rec.Process("catalog")
	proc.Thread(0, "entries")
	h := sha256.New()
	var runs, spans float64
	var snaps []metrics.Snapshot
	t0 := time.Now()
	for _, e := range experiments.All() {
		c := catalogConfig
		c.Metrics = metrics.New()
		start := time.Now()
		tables, err := e.Run(c)
		d := time.Since(start)
		out.Attempted++
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		proc.Span("experiments", "experiments", 0, start.Sub(a.epoch).Seconds(), d.Seconds(), simtrace.S("id", e.ID))
		ms := float64(d.Nanoseconds()) / 1e6
		spans += ms
		out.Metrics["experiments."+e.ID+"_ms"] = ms
		fmt.Fprintf(h, "# %s: %s\n\n", e.ID, e.Title)
		for _, t := range tables {
			t.Fprint(h)
		}
		snap := c.Metrics.Snapshot()
		snaps = append(snaps, snap)
		n, _ := snap.Get("machine.run.count")
		runs += n
	}
	wall := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err := checkCatalogSHA(hex.EncodeToString(h.Sum(nil))); err != nil {
		out.Failed++
		out.Errors = append(out.Errors, err.Error())
	}
	out.Metrics["machine.runs_per_catalog"] = runs
	out.Info["catalog.traced_ms"] = wall
	out.Info["catalog.span_coverage"] = spans / wall
	return snaps, nil
}

// probeGenerate times ssb.Generate three times and keeps the median.
func probeGenerate(ls layerSpans, out *childOut) (*ssb.Data, error) {
	var ms, allocs []float64
	var data *ssb.Data
	for i := 0; i < 3; i++ {
		a0 := mallocs()
		start := time.Now()
		d, err := ssb.Generate(catalogConfig.SF)
		dur := time.Since(start)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(mallocs()-a0))
		ms = append(ms, float64(dur.Nanoseconds())/1e6)
		ls.span("ssb", "Generate", "", start, dur)
		data = d
	}
	out.Metrics["ssb.generate_ms"] = median(ms)
	out.Metrics["ssb.generate_allocs"] = median(allocs)
	return data, nil
}

// probeEngines runs the 13 SSB queries twice through each engine on a
// fresh dataset: the first pass with its memos cold, the second warm.
func probeEngines(data *ssb.Data, ls layerSpans, out *childOut) error {
	ne, err := naive.New(machine.MustNew(machine.DefaultConfig()), data, naive.Options{Device: access.PMEM, TargetSF: 50})
	if err != nil {
		return err
	}
	ae, err := aware.New(machine.MustNew(machine.DefaultConfig()), data,
		aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
	if err != nil {
		return err
	}
	engines := []struct {
		name string
		run  func(ssb.Query) error
	}{
		{"naive", func(q ssb.Query) error { _, err := ne.Run(q); return err }},
		{"aware", func(q ssb.Query) error { _, err := ae.Run(q); return err }},
	}
	for _, e := range engines {
		var cold, warm, allocs []float64
		for pass := 0; pass < 2; pass++ {
			for _, q := range ssb.Queries() {
				a0 := mallocs()
				start := time.Now()
				if err := e.run(q); err != nil {
					return fmt.Errorf("%s %s: %w", e.name, q.ID, err)
				}
				d := time.Since(start)
				us := float64(d.Nanoseconds()) / 1e3
				ls.span(e.name, "Engine.Run "+q.ID, "", start, d)
				if pass == 0 {
					cold = append(cold, us)
					allocs = append(allocs, float64(mallocs()-a0))
				} else {
					warm = append(warm, us)
				}
			}
		}
		out.Metrics[e.name+".query_us"] = median(cold)
		out.Metrics[e.name+".query_warm_us"] = median(warm)
		out.Metrics[e.name+".query_allocs"] = median(allocs)
	}
	return nil
}

// probeMachine times core.Bench.Measure over a fig03-style grid of
// sequential PMEM reads: the machine cost model plus the fluid solve.
func probeMachine(ls layerSpans, out *childOut) error {
	b, err := core.NewBench(machine.DefaultConfig())
	if err != nil {
		return err
	}
	var us []float64
	a0 := mallocs()
	for _, thr := range []int{4, 18, 36} {
		for _, size := range []int64{64, 4096, 65536} {
			start := time.Now()
			_, err := b.Measure(core.Point{Class: access.PMEM, Dir: access.Read, Pattern: access.SeqGrouped,
				AccessSize: size, Threads: thr, Policy: cpu.PinCores})
			d := time.Since(start)
			if err != nil {
				return err
			}
			us = append(us, float64(d.Nanoseconds())/1e3)
			ls.span("machine", "Bench.Measure", "", start, d)
		}
	}
	out.Metrics["machine.measure_allocs"] = float64(mallocs()-a0) / float64(len(us))
	out.Metrics["machine.measure_us"] = median(us)
	return nil
}

// probeDoctor times doctor.Diagnose over every entry's counter snapshot.
func probeDoctor(snaps []metrics.Snapshot, ls layerSpans, out *childOut) {
	var us []float64
	for _, s := range snaps {
		start := time.Now()
		doctor.Diagnose(s, nil)
		d := time.Since(start)
		us = append(us, float64(d.Nanoseconds())/1e3)
		ls.span("doctor", "Diagnose", "", start, d)
	}
	out.Metrics["doctor.diagnose_us"] = median(us)
}

// probeKeys times server.KeyForRequest over the stream's bodies.
func probeKeys(items []streamItem, ls layerSpans, out *childOut) error {
	reqs := make([]server.RunRequest, len(items))
	for i, it := range items {
		if err := json.Unmarshal(it.Body, &reqs[i]); err != nil {
			return fmt.Errorf("decode request %d: %w", i, err)
		}
	}
	us := make([]float64, len(reqs))
	a0 := mallocs()
	for i, r := range reqs {
		start := time.Now()
		if _, err := server.KeyForRequest(r, 1); err != nil {
			return err
		}
		d := time.Since(start)
		us[i] = float64(d.Nanoseconds()) / 1e3
		ls.span("server", "KeyForRequest", "replay-"+strconv.Itoa(i), start, d)
	}
	out.Metrics["server.key_allocs"] = ratio(float64(mallocs()-a0), float64(len(reqs)))
	out.Metrics["server.key_us"] = median(us)
	return nil
}

// probeEncode times json.Marshal of each replayed answer's RunResult.
func probeEncode(items []streamItem, ls layerSpans, out *childOut) error {
	results := make([]server.RunResult, len(items))
	for i, it := range items {
		if err := json.Unmarshal(it.Answer, &results[i]); err != nil {
			return fmt.Errorf("decode answer %d: %w", i, err)
		}
	}
	us := make([]float64, len(results))
	a0 := mallocs()
	for i := range results {
		start := time.Now()
		if _, err := json.Marshal(results[i]); err != nil {
			return err
		}
		d := time.Since(start)
		us[i] = float64(d.Nanoseconds()) / 1e3
		ls.span("server", "json.Marshal(RunResult)", "replay-"+strconv.Itoa(i), start, d)
	}
	out.Metrics["server.encode_allocs"] = ratio(float64(mallocs()-a0), float64(len(results)))
	out.Metrics["server.encode_us"] = median(us)
	return nil
}

func contentKey(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// probeStore times sstcache puts, hits, misses and recovery over the
// replayed answers, in a store configured like the workers' disk tiers.
func probeStore(dir string, items []streamItem, ls layerSpans, out *childOut) error {
	defer os.RemoveAll(dir)
	opts := sstcache.Options{MemtableBytes: 1 << 20}
	s, err := sstcache.Open(dir, opts)
	if err != nil {
		return err
	}
	keys := make([]string, len(items))
	put := make([]float64, len(items))
	for i, it := range items {
		keys[i] = contentKey(it.Answer)
		start := time.Now()
		if err := s.Put(keys[i], it.Answer, nil); err != nil {
			s.Close()
			return err
		}
		d := time.Since(start)
		put[i] = float64(d.Nanoseconds()) / 1e3
		ls.span("sstcache", "Put", "replay-"+strconv.Itoa(i), start, d)
	}
	// Flush so the timed reads go to segments, as after a restart.
	if err := s.Flush(); err != nil {
		s.Close()
		return err
	}
	get := make([]float64, len(keys))
	miss := make([]float64, len(keys))
	for i, k := range keys {
		start := time.Now()
		_, _, ok := s.Get(k)
		d := time.Since(start)
		if !ok {
			s.Close()
			return fmt.Errorf("sstcache probe: stored key %s not found", k)
		}
		get[i] = float64(d.Nanoseconds()) / 1e3
		ls.span("sstcache", "Get", "replay-"+strconv.Itoa(i), start, d)
		absent := contentKey([]byte(k))
		start = time.Now()
		s.Get(absent)
		miss[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	if err := s.Close(); err != nil {
		return err
	}
	start := time.Now()
	s, err = sstcache.Open(dir, opts)
	if err != nil {
		return err
	}
	open := time.Since(start)
	ls.span("sstcache", "Open", "", start, open)
	s.Close()
	sort.Float64s(put)
	out.Metrics["sstcache.put_us"] = mean(put)
	out.Metrics["sstcache.put_us_p99"] = nearestRank(put, 0.99)
	out.Metrics["sstcache.get_us"] = mean(get)
	out.Metrics["sstcache.get_miss_us"] = mean(miss)
	out.Metrics["sstcache.open_ms"] = float64(open.Nanoseconds()) / 1e6
	return nil
}

// probeScaling measures the SSTable read path with 1e2, 1e3 and 1e4
// stored 2 KiB bodies: the mean time of 1000 reads of present keys.
func probeScaling(dir string, seed int64, out *childOut) error {
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(seed))
	body := make([]byte, 2<<10)
	for _, n := range []struct {
		count int
		name  string
	}{{100, "n1e2"}, {1000, "n1e3"}, {10000, "n1e4"}} {
		s, err := sstcache.Open(filepath.Join(dir, n.name), sstcache.Options{MemtableBytes: 1 << 20})
		if err != nil {
			return err
		}
		keys := make([]string, n.count)
		for i := range keys {
			rng.Read(body)
			keys[i] = contentKey(body)
			if err := s.Put(keys[i], body, nil); err != nil {
				s.Close()
				return err
			}
		}
		if err := s.Flush(); err != nil {
			s.Close()
			return err
		}
		const reads = 1000
		start := time.Now()
		for i := 0; i < reads; i++ {
			if _, _, ok := s.Get(keys[rng.Intn(len(keys))]); !ok {
				s.Close()
				return fmt.Errorf("sstcache scaling probe: key missing at %s", n.name)
			}
		}
		out.Metrics["sstcache.get_us."+n.name] = float64(time.Since(start).Nanoseconds()) / 1e3 / reads
		if err := s.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeTrace(path string, rec *simtrace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeTraces writes the Chrome trace-event files at paths as one
// document at out. Each input's process ids are shifted so they stay
// distinct; every input already uses the parent's time zero.
func mergeTraces(out string, paths ...string) error {
	var events []map[string]any
	for i, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, e := range doc.TraceEvents {
			if pid, ok := e["pid"].(float64); ok {
				e["pid"] = pid + float64(1000*i)
			}
			events = append(events, e)
		}
	}
	doc := map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"clock": "wall-clock seconds since the benchmark started"},
		"traceEvents":     events,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

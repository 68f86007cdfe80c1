package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// sut is the system under test: a child process serving a stack on
// loopback listeners, driven from the load-generating parent. Its admin
// listener reports counters, restarts workers and stops the process.
type sut struct {
	cmd   *exec.Cmd
	alive *os.File // the child's stdin pipe; it exits when this closes
	front string
	admin string
	start time.Time // when the child began constructing servers
	hc    *http.Client
	ended bool
}

// sutHello is the line a serving child prints once its stack is up.
type sutHello struct {
	Front       string `json:"front"`
	Admin       string `json:"admin"`
	StartUnixNS int64  `json:"start_unix_ns"`
}

// sutSnapshot is the admin /snapshot answer: each worker's registry and
// the router's (nil for a single pmemd).
type sutSnapshot struct {
	Workers []metrics.Snapshot `json:"workers"`
	Router  *metrics.Snapshot  `json:"router,omitempty"`
}

// merged sums the workers' counters (gauges take the maximum).
func (s sutSnapshot) merged() metrics.Snapshot {
	var m metrics.Snapshot
	for _, w := range s.Workers {
		m = metrics.Merge(m, w)
	}
	return m
}

// startSUT spawns a serving child for the named stack and waits until it
// listens.
func (p *parent) startSUT(stack string) (*sut, error) {
	cmd, dir, err := p.command("serve", "-stack", stack)
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stdin, alive, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdin = stdin
	err = cmd.Start()
	stdin.Close()
	if err != nil {
		alive.Close()
		return nil, fmt.Errorf("start serving child: %w", err)
	}
	s := &sut{cmd: cmd, alive: alive, hc: &http.Client{Timeout: time.Minute}}
	line, err := bufio.NewReader(out).ReadBytes('\n')
	var hello sutHello
	if err == nil {
		err = json.Unmarshal(line, &hello)
	}
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("serving child in %s did not come up: %v", dir, err)
	}
	s.front, s.admin, s.start = hello.Front, hello.Admin, time.Unix(0, hello.StartUnixNS)
	return s, nil
}

func (s *sut) post(path string) error {
	resp, err := s.hc.Post(s.admin+path, "text/plain", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

func (s *sut) snapshot() (sutSnapshot, error) {
	var snap sutSnapshot
	resp, err := s.hc.Get(s.admin + "/snapshot")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// restart closes every worker and reopens it on its disk directory.
func (s *sut) restart() error { return s.post("/restart") }

// quit stops the child and returns its peak resident set in MiB.
func (s *sut) quit() (float64, error) {
	resp, err := s.hc.Post(s.admin+"/quit", "text/plain", nil)
	var q sutQuit
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&q)
		resp.Body.Close()
	}
	if err != nil {
		s.kill()
		return 0, fmt.Errorf("quit serving child: %w", err)
	}
	s.ended = true
	err = s.cmd.Wait()
	s.alive.Close()
	if err != nil {
		return 0, fmt.Errorf("serving child: %w", err)
	}
	return q.PeakRSSMB, nil
}

// sutQuit is the admin /quit answer.
type sutQuit struct {
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// kill ends the child if quit has not; safe to defer.
func (s *sut) kill() {
	if s.ended {
		return
	}
	s.ended = true
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.alive.Close()
}

// peakRSSMB is this process's peak resident set in MiB, read from
// /proc/self/status. The exit status's Maxrss would not do: a child
// started by vfork and exec inherits its parent's peak.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// sender returns a sendFunc over reqs that also checks each answer's tier.
func sender(c *client, reqs []request, want func(request, string) bool) sendFunc {
	return func(i int, id string) outcome {
		r := reqs[i]
		tier, _, err := c.run(r.body, r.ident, id)
		if err == nil && want != nil && !want(r, tier) {
			err = fmt.Errorf("%s: served from tier %q, which this workload must not use", r.ident, tier)
		}
		return outcome{tier: tier, err: err}
	}
}

// wantMiss accepts only computed answers: set-up traffic is all new keys.
func wantMiss(_ request, tier string) bool { return tier == "miss" }

// setUp starts the workload's serving child and brings it to the state
// the measured phase starts from. It returns the set-up time: from the
// start of server construction until the measured phase is ready.
func (p *parent) setUp(pl plan) (*sut, *client, float64, error) {
	s, err := p.startSUT(p.w.stack)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(s.front)
	shots, _ := closedLoop(len(pl.setup), 2, "setup-", sender(c, pl.setup, wantMiss))
	p.res.count(shots)
	if p.w.stack == "fleet" {
		if err := s.restart(); err != nil {
			s.kill()
			return nil, nil, 0, err
		}
	}
	return s, c, time.Since(s.start).Seconds(), nil
}

// segments splits the measured phase into alternating open-loop and
// closed-loop parts. Each end-to-end metric is the median of its
// per-segment values, so a burst of host noise moves one segment rather
// than the result, and both loops sample the whole run.
const segments = 10

// window returns the index range of the schedule's arrivals in [from, to)
// and their offsets from from.
func window(sched []time.Duration, from, to time.Duration) (lo, hi int, rebased []time.Duration) {
	lo = sort.Search(len(sched), func(i int) bool { return sched[i] >= from })
	hi = sort.Search(len(sched), func(i int) bool { return sched[i] >= to })
	for _, t := range sched[lo:hi] {
		rebased = append(rebased, t-from)
	}
	return lo, hi, rebased
}

// setupChildren is how many extra set-ups join the measuring child's in
// the reported set-up median.
const setupChildren = 2

func (p *parent) servingMeasure() error {
	pl := makePlan(p.w, p.f.seed, p.sc())
	var setup []timed
	var s *sut
	var c *client
	for len(setup) <= setupChildren {
		ref, err := p.host.sample()
		if err != nil {
			return err
		}
		var secs float64
		if s, c, secs, err = p.setUp(pl); err != nil {
			return err
		}
		setup = append(setup, timed{ref, secs})
		if len(setup) <= setupChildren {
			c.close()
			if _, err := s.quit(); err != nil {
				return err
			}
		}
	}
	defer s.kill()
	defer c.close()
	if p.res.Failed > 0 {
		return nil
	}

	before, err := s.snapshot()
	if err != nil {
		return err
	}
	var open, closed []shot
	var p50s, rates []timed
	d, n := p.sc().openDur(), len(pl.closed)
	for k := 0; k < segments; k++ {
		lo, hi, sched := window(pl.sched, d*time.Duration(k)/segments, d*time.Duration(k+1)/segments)
		prefix := "s" + strconv.Itoa(k)
		ref, err := p.host.sample()
		if err != nil {
			return err
		}
		o := openLoop(sched, 2, prefix+"-open-", sender(c, pl.open[lo:hi], p.w.want), nil)
		if lat := latencyMS(o); len(lat) > 0 {
			p50s = append(p50s, timed{ref, nearestRank(lat, 0.5)})
		}
		if ref, err = p.host.sample(); err != nil {
			return err
		}
		cl, wall := closedLoop(n*(k+1)/segments-n*k/segments, 2, prefix+"-closed-", sender(c, pl.closed[n*k/segments:], p.w.want))
		rates = append(rates, timed{ref, float64(len(cl)) / wall.Seconds()})
		open, closed = append(open, o...), append(closed, cl...)
	}
	if _, err := p.host.sample(); err != nil {
		return err
	}
	after, err := s.snapshot()
	if err != nil {
		return err
	}
	c.close()
	rss, err := s.quit()
	if err != nil {
		return err
	}
	p.res.count(open)
	p.res.count(closed)

	p.setScaled("setup_s", setup, false)
	p.setScaled("lat_p50_ms", p50s, false)
	p.setScaled("throughput_rps", rates, true)
	p.vals["peak_rss_mb"] = rss
	lat := latencyMS(open)
	info := p.res.info
	info["open_requests"] = float64(len(open))
	info["closed_requests"] = float64(len(closed))
	info["lat_tail_ms"] = nearestRank(lat, tailQuantile(len(lat)))
	info["tail_quantile"] = tailQuantile(len(lat))
	info["lat_p999_ms"] = nearestRank(lat, 0.999)
	info["closed_lat_p50_ms"] = nearestRank(latencyMS(closed), 0.50)
	// At the tail quantile, not p99: short smoke runs have too few samples
	// for p99 to be more than the single worst timer wake-up.
	lagP99 := nearestRank(lagMS(open), tailQuantile(len(open)))
	info["loadgen.lag_p99_ms"] = lagP99

	tiers := map[string]int{}
	for _, s := range append(open, closed...) {
		tiers[s.tier]++
	}
	for _, t := range []string{"miss", "hit", "disk", "coalesced"} {
		info["tier."+t] = float64(tiers[t])
	}
	b, a := before.merged(), after.merged()
	coalesced := delta(b, a, "server_coalesced")
	info["server.coalesced"] = coalesced
	info["server.rejected"] = delta(b, a, "server_rejected")
	info["sstcache.flushes"] = delta(b, a, "sstcache_flushes")
	info["sstcache.compactions"] = delta(b, a, "sstcache_compactions")
	p.res.invalid = append(p.res.invalid, gates(p.w.name, tiers, coalesced, lagP99)...)
	return nil
}

// gates checks that a serving run measured what its workload is designed
// to, returning one message per violation. Per-request tier checks already
// fail serve-cold answers that are not computed and serve-lru answers that
// are not LRU hits.
func gates(workload string, tiers map[string]int, coalesced, lagP99 float64) []string {
	var bad []string
	total := 0
	for _, n := range tiers {
		total += n
	}
	if disk := float64(tiers["disk"]) / float64(max(total, 1)); workload == "fleet-disk" && disk < 0.85 {
		bad = append(bad, fmt.Sprintf("disk tier served %.1f%% of requests, want >= 85%%", 100*disk))
	}
	if workload == "serve-cold" && coalesced != 0 {
		bad = append(bad, fmt.Sprintf("server.coalesced = %g, want 0: what-if keys collided", coalesced))
	}
	if lagP99 > maxLagMS {
		bad = append(bad, fmt.Sprintf("loadgen.lag_p99_ms = %.3f, want <= %g: the generator ran late", lagP99, maxLagMS))
	}
	return bad
}

// maxLagMS bounds the generator's p99 timer lag in a valid run.
const maxLagMS = 2.0

func openLogger(path string) (*slog.Logger, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return slog.New(slog.NewTextHandler(f, nil)), f, nil
}

// runSUT is the serving child: build the named stack, announce it, and
// serve until the parent asks it to quit. The "echo" stack serves no
// system, only GET /ping: the reference the host-speed normalization times.
func runSUT(a childArgs, name string) error {
	start := time.Now()
	var st *stack
	if cfg, ok := stacks[name]; ok {
		if a.short {
			// -short shrinks key counts 16-fold; shrinking the LRU alike keeps
			// the share of reads each tier serves.
			cfg.opts.CacheBytes /= 16
		}
		log, logf, err := openLogger(filepath.Join(a.dir, "server.log"))
		if err != nil {
			return err
		}
		defer logf.Close()
		if st, err = newStack(cfg, filepath.Join(a.dir, "stack"), log); err != nil {
			return err
		}
		defer st.close()
	}
	quit := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {})
	if st != nil {
		mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
			snap := sutSnapshot{}
			for _, wk := range st.workers {
				snap.Workers = append(snap.Workers, wk.srv.Registry().Snapshot())
			}
			if st.router != nil {
				rs := st.router.Registry().Snapshot()
				snap.Router = &rs
			}
			json.NewEncoder(w).Encode(snap)
		})
		mux.HandleFunc("POST /restart", func(w http.ResponseWriter, r *http.Request) {
			if err := st.restart(); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	var once sync.Once
	// The parent holds this process's stdin open while it lives: if it dies
	// without asking us to quit, stop anyway.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		once.Do(func() { close(quit) })
	}()
	mux.HandleFunc("POST /quit", func(w http.ResponseWriter, r *http.Request) {
		rss, err := peakRSSMB()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		} else {
			json.NewEncoder(w).Encode(sutQuit{PeakRSSMB: rss})
		}
		once.Do(func() { close(quit) })
	})
	aln, err := listen(mux)
	if err != nil {
		return err
	}
	defer aln.close()
	front := aln.url
	if st != nil {
		front = st.front
	}
	hello, err := json.Marshal(sutHello{Front: front, Admin: aln.url, StartUnixNS: start.UnixNano()})
	if err != nil {
		return err
	}
	if _, err := fmt.Printf("%s\n", hello); err != nil {
		return err
	}
	<-quit
	return nil
}

// Command benchmark is the repository's benchmark. It runs one workload
// against the system through its public entry points, checks every output,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload catalog --seed 1 --trace 1 --out catalog.json
//	bash benchmark/run.sh --compare 'a/*.json' 'b/*.json'
//
// -trace 0 reports the end-to-end metrics. -trace 1 runs the traced pass
// instead, reports the per-layer metrics and writes a Perfetto-loadable
// <work>/traces/<workload>.trace.json. -out also writes the result to a
// file, which -compare reads. -spec prints BENCHMARK.json. The system
// under test always runs in fresh child processes of this binary, and
// this process generates the load; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type flags struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	work      string
	out       string
	short     bool
	compare   bool
	spec      bool
	child     string
	dir       string
	stack     string
	stream    string
	epochNano int64
}

func parseFlags(args []string) (flags, []string, error) {
	var f flags
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload to run: catalog, serve-cold, serve-lru or fleet-disk")
	fs.Int64Var(&f.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&f.seconds, "seconds", defaultSeconds, "length of the measured phases")
	fs.IntVar(&f.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&f.work, "work", ".bench_build", "directory for run directories and <work>/traces/<workload>.trace.json")
	fs.StringVar(&f.out, "out", "", "also write the result to this file, for -compare")
	fs.BoolVar(&f.short, "short", false, "shrink key counts for a smoke run")
	fs.BoolVar(&f.compare, "compare", false, "compare run sets; each argument is a glob or comma list of -out files")
	fs.BoolVar(&f.spec, "spec", false, "print BENCHMARK.json")
	fs.StringVar(&f.child, "child", "", "internal: run as a child process in this role")
	fs.StringVar(&f.dir, "dir", "", "internal: the child's directory")
	fs.StringVar(&f.stack, "stack", "", "internal: the serving child's stack: single, fleet or echo")
	fs.StringVar(&f.stream, "stream", "", "internal: the layers child's replayed stream")
	fs.Int64Var(&f.epochNano, "epoch", 0, "internal: trace time zero in Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return f, nil, err
	}
	return f, fs.Args(), nil
}

func run(args []string) int {
	f, rest, err := parseFlags(args)
	if err != nil {
		return 2
	}
	switch {
	case f.spec:
		return exitOn(writeSpec(os.Stdout))
	case f.compare:
		return exitOn(compare(os.Stdout, rest))
	case f.child != "":
		return exitOn(runChild(f))
	}
	w, err := workloadByName(f.workload)
	if err != nil {
		return exitOn(err)
	}
	if f.trace != 0 && f.trace != 1 {
		return exitOn(fmt.Errorf("-trace must be 0 or 1"))
	}
	if f.seconds <= 0 {
		return exitOn(fmt.Errorf("-seconds must be positive"))
	}
	p := &parent{f: f, w: w, epoch: time.Now(), res: newResult(), vals: map[string]float64{}}
	p.root, err = filepath.Abs(filepath.Join(f.work, "runs", fmt.Sprintf("%s-%d-%d", w.name, f.seed, os.Getpid())))
	if err != nil {
		return exitOn(err)
	}
	if err := os.MkdirAll(p.root, 0o755); err != nil {
		return exitOn(err)
	}
	if err := p.measure(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v (run directory kept: %s)\n", w.name, err, p.root)
		return 1
	}
	if err := p.report(os.Stdout); err != nil {
		return exitOn(err)
	}
	if !p.res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: outputs wrong or run invalid (run directory kept: %s)\n", w.name, p.root)
		return 1
	}
	os.RemoveAll(p.root)
	return 0
}

func exitOn(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errors  []string
	invalid []string
	info    map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, info: map[string]float64{}}
}

// count tallies shots into the attempted/failed totals, keeping the first
// few error messages.
func (r *result) count(shots []shot) {
	for _, s := range shots {
		r.Attempted++
		if s.err != nil {
			r.Failed++
			if len(r.errors) < 5 {
				r.errors = append(r.errors, s.err.Error())
			}
		}
	}
}

// childOut is what a reporting child prints on stdout.
type childOut struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info holds numbers printed for the reader but not part of the
	// result line.
	Info map[string]float64 `json:"info"`
}

func newChildOut() *childOut {
	return &childOut{Metrics: map[string]float64{}, Info: map[string]float64{}}
}

// childArgs are the flags a parent hands a child.
type childArgs struct {
	seed  int64
	short bool
	dir   string    // the child's private directory
	epoch time.Time // trace time zero, shared by parent and children
}

// parent drives one workload run: it spawns the child processes, generates
// the load, and assembles the result.
type parent struct {
	f     flags
	w     workload
	root  string
	epoch time.Time
	res   *result
	vals  map[string]float64
	seq   int
	host  hostSpeed
}

func (p *parent) sc() scale { return scale{seconds: p.f.seconds, short: p.f.short} }

func (p *parent) measure() error {
	var err error
	p.host.kind = p.w.ref
	if p.f.trace == 0 && p.w.ref == refEcho {
		if p.host.echo, err = p.startSUT("echo"); err != nil {
			return err
		}
		defer p.host.echo.quit()
	}
	switch {
	case p.w.name == "catalog" && p.f.trace == 0:
		err = p.catalogMeasure()
	case p.w.name == "catalog":
		err = p.catalogTrace()
	case p.f.trace == 0:
		err = p.servingMeasure()
	default:
		err = p.servingTrace()
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if p.f.trace == 1 {
		defs = perLayer()
	} else {
		p.res.info["host.ref_ms"] = median(p.host.ms)
	}
	for _, d := range defs {
		v, ok := p.vals[d.Name]
		if !ok && p.res.Failed == 0 {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		p.res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	p.res.Correct = p.res.Failed == 0 && len(p.res.invalid) == 0
	return nil
}

// setScaled records name as the median of the operations normalized to
// the nominal host, keeping the measured median as a note.
func (p *parent) setScaled(name string, ts []timed, rate bool) {
	p.vals[name] = median(p.host.scale(ts, rate))
	p.res.info["raw."+name] = median(values(ts))
}

// command prepares this binary as a child in the given role, with its own
// directory under the run directory.
func (p *parent) command(role string, extra ...string) (*exec.Cmd, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	p.seq++
	dir := filepath.Join(p.root, fmt.Sprintf("%02d-%s", p.seq, role))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	args := append([]string{"-child", role, "-seed", strconv.FormatInt(p.f.seed, 10),
		"-dir", dir, "-epoch", strconv.FormatInt(p.epoch.UnixNano(), 10), "-short=" + strconv.FormatBool(p.f.short)}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	return cmd, dir, nil
}

// childResult is one finished child process.
type childResult struct {
	dir    string
	stdout []byte
	wall   time.Duration
}

// spawn runs a child to completion.
func (p *parent) spawn(role string, extra ...string) (childResult, error) {
	cmd, dir, err := p.command(role, extra...)
	if err != nil {
		return childResult{}, err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", role, err)
	}
	return childResult{dir: dir, stdout: stdout.Bytes(), wall: time.Since(start)}, nil
}

// spawnOut runs a reporting child and folds its report into the result.
func (p *parent) spawnOut(role string, extra ...string) (*childOut, childResult, error) {
	cr, err := p.spawn(role, extra...)
	if err != nil {
		return nil, cr, err
	}
	o := newChildOut()
	if err := json.Unmarshal(cr.stdout, o); err != nil {
		return nil, cr, fmt.Errorf("child %s: bad report: %w", role, err)
	}
	p.res.Attempted += o.Attempted
	p.res.Failed += o.Failed
	p.res.errors = append(p.res.errors, o.Errors...)
	for k, v := range o.Info {
		p.res.info[k] = v
	}
	return o, cr, nil
}

// report prints the reader's notes, every metric with its unit, and then
// the result line.
func (p *parent) report(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %d\n", p.w.name, p.f.seed, p.f.seconds, p.f.trace)
	for _, k := range sortedKeys(p.res.info) {
		fmt.Fprintf(w, "# %s %s\n", k, strconv.FormatFloat(p.res.info[k], 'g', 6, 64))
	}
	for _, e := range p.res.errors {
		fmt.Fprintf(w, "# error: %s\n", e)
	}
	for _, e := range p.res.invalid {
		fmt.Fprintf(w, "# invalid: %s\n", e)
	}
	fmt.Fprintf(w, "error_frac %g ratio\n", ratio(float64(p.res.Failed), float64(p.res.Attempted)))
	for _, k := range sortedKeys(p.res.Metrics) {
		m := p.res.Metrics[k]
		fmt.Fprintf(w, "%s %s %s\n", k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if p.f.out != "" {
		b, err := json.MarshalIndent(savedRun{Workload: p.w.name, Seed: p.f.seed, Trace: p.f.trace, Result: *p.res, Notes: p.res.info}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(p.f.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(p.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runChild is the child process side: run one role and print its report.
func runChild(f flags) error {
	a := childArgs{seed: f.seed, short: f.short, dir: f.dir, epoch: time.Unix(0, f.epochNano)}
	var rep any
	var err error
	switch f.child {
	case "serve":
		return runSUT(a, f.stack)
	case "catalog":
		rep, err = runCatalogChild()
	case "layers":
		rep, err = runLayers(a, f.stream)
	default:
		err = fmt.Errorf("unknown child role %q", f.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3-6) on the simulated machine, plus the ablation
// studies DESIGN.md calls out. Each experiment returns printable tables and
// carries the paper's reference numbers so EXPERIMENTS.md can record
// paper-vs-measured side by side.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/simtrace"
)

// Config controls experiment execution.
type Config struct {
	// SF is the scale factor the SSB engines *execute* at; their traffic is
	// scaled to the paper's sf 50 (Hyrise) and sf 100 (handcrafted).
	// Larger values cost proportional memory and CPU time.
	SF float64
	// Quick trims sweep axes for fast smoke runs.
	Quick bool
	// Jobs is the worker-pool width of RunAll/RunList; <= 0 means
	// GOMAXPROCS. Experiments execute on independent Machine instances, so
	// any width produces byte-identical output (virtual time is
	// deterministic); Jobs only changes wall-clock time.
	Jobs int
	// EmitMetrics appends each experiment's metrics snapshot (and a
	// suite-wide aggregate) to the rendered output.
	EmitMetrics bool
	// Metrics is the registry the experiment's machines record into. The
	// runner installs a fresh registry per experiment; leave nil when
	// calling an Experiment.Run directly and the machines fall back to
	// private registries.
	Metrics *metrics.Registry
	// Machine optionally replaces the calibrated machine model: every
	// machine an experiment builds starts from this configuration instead
	// of machine.DefaultConfig(). This is how pmemd serves what-if requests
	// (a hypothetical faster Optane generation, a prefetcher-less CPU)
	// without a recompile. Nil means the calibrated default.
	Machine *machine.Config
	// Arrivals optionally replaces the serving experiments' built-in
	// traffic spec: every serve0x entry draws its arrival processes,
	// admission policy, and scheduler from this spec instead of the
	// defaults (serve02/serve03 still vary load and scheduler around it).
	// Like Machine.Faults, the spec is canonicalized (queueing.Normalize)
	// before use, so pmemd cache keys and RunList outputs depend only on
	// the scenario, not its JSON spelling. Nil means the built-in traffic.
	Arrivals *queueing.Spec
	// Pool, when set, bounds concurrent experiment executions across
	// *multiple* RunConcurrent calls. The batch CLI leaves it nil (Jobs
	// already bounds one run); long-lived callers such as pmemd share one
	// Pool so total simulation concurrency stays fixed no matter how many
	// requests are in flight.
	Pool *Pool
	// Trace is the simulated-time timeline recorder the experiment's machines
	// emit into. Like Metrics, the runner installs a fresh recorder per
	// experiment when TraceDir is set; set it directly when calling an
	// Experiment.Run yourself (pmemd does, for traced requests).
	Trace *simtrace.Recorder
	// TraceDir, when non-empty, makes the runner record each experiment's
	// timeline and write it to <TraceDir>/<id>.trace.json. Because the
	// simulation runs in virtual time, the files are byte-identical across
	// worker-pool widths.
	TraceDir string
	// SweepWidth bounds intra-experiment parallelism: experiments whose
	// sweep points build independent machines evaluate up to this many
	// points concurrently, assembling results in index order so rendered
	// tables are byte-identical at any width. <= 1 means serial. Metrics
	// and trace recording force the serial path (see Config.sweepWidth):
	// concurrent machines interleave their float-counter accumulation and
	// timeline events, which would perturb those outputs. Callers that
	// consume the aggregate metrics snapshot through other means (the
	// CLI's -metrics-json without -metrics) must leave this at 1.
	SweepWidth int

	// ctx carries the run's cancellation signal into experiment bodies.
	// The runner installs it; experiment sweep loops poll Err. Nil means
	// never canceled.
	ctx context.Context
}

// DefaultConfig matches the repository's documented outputs.
func DefaultConfig() Config { return Config{SF: 0.1} }

// WithContext returns a copy of the config carrying ctx, for calling an
// Experiment.Run directly with cancellation (the runner does this for you).
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// Context returns the run's context (never nil).
func (c Config) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Err reports whether the run has been canceled or timed out. Experiment
// sweep loops poll it between simulation points so the daemon's per-request
// deadlines (and the CLI's Ctrl-C) take effect mid-experiment rather than
// only between experiments.
func (c Config) Err() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// MachineConfig returns the machine configuration experiments build their
// machines from — the calibrated default or the ad-hoc override — with this
// run's metrics registry attached so the runner can aggregate
// per-experiment counters.
func (c Config) MachineConfig() machine.Config {
	mc := machine.DefaultConfig()
	if c.Machine != nil {
		mc = *c.Machine
	}
	mc.Metrics = c.Metrics
	mc.Trace = c.Trace
	return mc
}

// Pool is a counting semaphore bounding concurrent experiment executions.
// RunConcurrent uses the one in Config when present; a nil *Pool imposes no
// bound. Sharing one Pool between the HTTP daemon's request handlers and any
// batch runs in the same process keeps the machine simulations from
// oversubscribing the host no matter how many runs race.
type Pool struct{ sem chan struct{} }

// NewPool returns a pool of the given width; width <= 0 means GOMAXPROCS.
func NewPool(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, width)}
}

// Width reports the pool's concurrency bound.
func (p *Pool) Width() int { return cap(p.sem) }

// Acquire blocks until an execution slot is free or ctx is done.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot without blocking, reporting success. Sweep loops
// use it to borrow spare capacity for extra point workers: blocking here
// could deadlock when every slot is already held by experiments waiting on
// their own sweeps.
func (p *Pool) TryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire.
func (p *Pool) Release() { <-p.sem }

// Table is one printable result table. The JSON tags are the wire shape
// pmemd serves; renaming a field is an API break.
type Table struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Unit   string   `json:"unit"`   // "GB/s" or "s"
	Header string   `json:"header"` // axis description of the columns
	Cols   []string `json:"cols"`
	Series []Series `json:"series"`
	// Paper summarizes the corresponding reference values from the paper.
	Paper string `json:"paper,omitempty"`
}

// Series is one row of a table.
type Series struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// Experiment is one registered reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]Table, error)
	// Inputs, when non-nil, builds what Run reads that no machine.Config
	// changes: a generated SSB data set and its fact pass, or ext05's key
	// partitions. Each input is memoized per process and counted, so Run
	// finds it built and a run under another machine configuration
	// recomputes none of it. RunConcurrent calls Inputs on a spare
	// goroutine ahead of the entries that read them; calling Run alone
	// builds the same inputs on first use. A failed build fails Run.
	Inputs func(Config) error
}

var registry []Experiment

func register(id, title string, run func(Config) ([]Table, error)) {
	registerWithInputs(id, title, nil, run)
}

// registerWithInputs registers an experiment whose Run reads the inputs
// that inputs builds (see Experiment.Inputs).
func registerWithInputs(id, title string, inputs func(Config) error, run func(Config) ([]Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run, Inputs: inputs})
}

// All returns the registered experiments in a stable order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns one experiment. The error for an unknown ID enumerates every
// valid ID so a typo is self-diagnosing at the CLI and over HTTP.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q; valid ids: %s", id, idList())
}

func idList() string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// CatalogEntry is one experiment in the catalog, as printed by the CLI's
// -list flag and served by pmemd's GET /v1/experiments.
type CatalogEntry struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Catalog lists the registered experiments in stable ID order.
func Catalog() []CatalogEntry {
	all := All()
	out := make([]CatalogEntry, len(all))
	for i, e := range all {
		out[i] = CatalogEntry{ID: e.ID, Title: e.Title}
	}
	return out
}

// FprintCatalog renders the catalog as aligned text.
func FprintCatalog(w io.Writer) {
	entries := Catalog()
	width := 0
	for _, e := range entries {
		if len(e.ID) > width {
			width = len(e.ID)
		}
	}
	for _, e := range entries {
		fmt.Fprintf(w, "%-*s  %s\n", width, e.ID, e.Title)
	}
}

// FprintCSV renders a table as CSV (one header line, then one line per
// series) for downstream plotting.
func (t Table) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s,%s,%s\n", t.ID, t.Title, t.Unit)
	fmt.Fprintf(w, "%s", csvEscape(t.Header))
	for _, c := range t.Cols {
		fmt.Fprintf(w, ",%s", csvEscape(c))
	}
	fmt.Fprintln(w)
	for _, s := range t.Series {
		fmt.Fprintf(w, "%s", csvEscape(s.Label))
		for _, v := range s.Values {
			fmt.Fprintf(w, ",%.4f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Fprint renders a table as aligned text.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s [%s]\n", t.ID, t.Title, t.Unit)
	if t.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Paper)
	}
	labelW := len(t.Header)
	for _, s := range t.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	if labelW < 22 {
		labelW = 22
	}
	colW := 10
	for _, c := range t.Cols {
		if len(c)+2 > colW {
			colW = len(c) + 2
		}
	}
	fmt.Fprintf(w, "%-*s", labelW, t.Header)
	for _, c := range t.Cols {
		fmt.Fprintf(w, "%*s", colW, c)
	}
	fmt.Fprintln(w)
	for _, s := range t.Series {
		fmt.Fprintf(w, "%-*s", labelW, s.Label)
		for _, v := range s.Values {
			fmt.Fprintf(w, "%*.2f", colW, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Result is one experiment's outcome from the concurrent runner.
type Result struct {
	Experiment Experiment
	Tables     []Table
	// Metrics is the experiment's aggregated simulation counters (every
	// machine the experiment built records into one registry).
	Metrics metrics.Snapshot
	// Trace is the experiment's simulated-time timeline; nil unless the run
	// was configured with TraceDir (or an explicit Trace recorder).
	Trace *simtrace.Recorder
	Err   error
}

// RunConcurrent executes the experiments on a pool of cfg.Jobs workers
// (default GOMAXPROCS), each on its own Machine instances with its own
// metrics registry, and returns a channel yielding one Result per experiment
// in stable ID order — each result is delivered as soon as it and all its
// predecessors have completed, so consumers can stream output while later
// experiments are still running.
//
// When the list holds entries both with and without declared inputs, one
// more goroutine builds the declared inputs, in the order the entries read
// them, while the workers run the input-free entries first and the
// input-bound ones after them, in ID order. Jobs bounds the experiments,
// not that input build; results still leave in ID order, so the output is
// the same at any width.
//
// Canceling ctx stops the run: experiments not yet started fail with the
// context's error, running experiments abort at their next sweep-loop
// poll, and no further input is built. The channel still delivers one
// Result per experiment and closes once every goroutine of the run is
// done.
func RunConcurrent(ctx context.Context, cfg Config, list []Experiment) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.ctx = ctx

	sorted := make([]Experiment, len(list))
	copy(sorted, list)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(sorted) {
		jobs = len(sorted)
	}

	runOne := func(e Experiment) Result {
		if err := ctx.Err(); err != nil {
			return Result{Experiment: e, Err: fmt.Errorf("experiment %s: %w", e.ID, err)}
		}
		if cfg.Pool != nil {
			if err := cfg.Pool.Acquire(ctx); err != nil {
				return Result{Experiment: e, Err: fmt.Errorf("experiment %s: %w", e.ID, err)}
			}
			defer cfg.Pool.Release()
		}
		c := cfg
		c.Metrics = metrics.New()
		if c.TraceDir != "" && c.Trace == nil {
			c.Trace = simtrace.New()
		}
		tables, err := e.Run(c)
		if err != nil {
			err = fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		return Result{Experiment: e, Tables: tables, Metrics: c.Metrics.Snapshot(), Trace: c.Trace, Err: err}
	}

	// order lists the input-free entries, then the input-bound ones; bound
	// holds the latter, whose inputs the warmer builds meanwhile.
	order := make([]int, 0, len(sorted))
	var bound []Experiment
	for i, e := range sorted {
		if e.Inputs == nil {
			order = append(order, i)
		}
	}
	for i, e := range sorted {
		if e.Inputs != nil {
			order = append(order, i)
			bound = append(bound, e)
		}
	}
	warmed := make(chan struct{})
	if len(bound) > 0 && len(bound) < len(sorted) {
		go func() {
			defer close(warmed)
			for _, e := range bound {
				if ctx.Err() != nil {
					return
				}
				// Inputs memoize their failures; the entry's Run reports them.
				_ = e.Inputs(cfg)
			}
		}()
	} else {
		close(warmed)
	}

	slots := make([]chan Result, len(sorted))
	for i := range slots {
		slots[i] = make(chan Result, 1)
	}
	var next atomic.Int64
	for w := 0; w < jobs; w++ {
		go func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				slots[i] <- runOne(sorted[i])
			}
		}()
	}
	out := make(chan Result)
	go func() {
		for _, slot := range slots {
			out <- <-slot
		}
		<-warmed
		close(out)
	}()
	return out
}

// RunAll executes every experiment on the worker pool and prints its tables
// in stable ID order.
func RunAll(ctx context.Context, cfg Config, w io.Writer) error {
	_, err := RunList(ctx, cfg, All(), w)
	return err
}

// RunList runs the given experiments concurrently and renders their tables
// (and, with cfg.EmitMetrics, per-experiment metrics snapshots) in stable ID
// order. It returns the suite-wide aggregate snapshot (counters summed,
// gauges maxed across experiments). On error (including ctx cancellation),
// output stops at the experiment preceding the first failure (in ID order)
// and the first failure is returned after the remaining workers drain.
func RunList(ctx context.Context, cfg Config, list []Experiment, w io.Writer) (metrics.Snapshot, error) {
	var agg metrics.Snapshot
	var firstErr error
	for res := range RunConcurrent(ctx, cfg, list) {
		if firstErr != nil {
			continue // drain
		}
		if res.Err != nil {
			firstErr = res.Err
			continue
		}
		fmt.Fprintf(w, "# %s: %s\n\n", res.Experiment.ID, res.Experiment.Title)
		for _, t := range res.Tables {
			t.Fprint(w)
		}
		if cfg.EmitMetrics {
			fmt.Fprintf(w, "## %s — metrics\n", res.Experiment.ID)
			res.Metrics.Fprint(w)
			fmt.Fprintln(w)
		}
		if cfg.TraceDir != "" {
			if err := WriteTraceFile(cfg.TraceDir, res.Experiment.ID, res.Trace); err != nil {
				firstErr = err
				continue
			}
		}
		agg = metrics.Merge(agg, res.Metrics)
	}
	if firstErr != nil {
		return agg, firstErr
	}
	if cfg.EmitMetrics && len(list) > 1 {
		fmt.Fprintln(w, "# aggregate — metrics")
		agg.Fprint(w)
		fmt.Fprintln(w)
	}
	return agg, nil
}

// sweepWidth returns the effective intra-experiment parallelism: the
// configured SweepWidth, forced to 1 whenever metrics or trace output is
// being recorded (shared float counters and timelines are order-sensitive
// under concurrency; table values are not, because every sweep point runs
// wholly inside its own machines).
func (c Config) sweepWidth() int {
	if c.SweepWidth <= 1 {
		return 1
	}
	if c.EmitMetrics || c.Trace != nil || c.TraceDir != "" {
		return 1
	}
	return c.SweepWidth
}

// sweepPoints evaluates n independent sweep points, calling eval(i) for each,
// up to cfg.sweepWidth() concurrently. Each point must build its own machines
// and store its result into an index-addressed slot; the caller assembles the
// table in index order afterwards, which keeps the rendered output
// byte-identical at any width. The first worker always runs; additional
// workers borrow slots from cfg.Pool without blocking (the experiment itself
// already holds one), so sweeps compose with the -j experiment pool and with
// pmemd's shared pool without deadlock. On failure the lowest-index error is
// returned, so attribution does not depend on scheduling.
func sweepPoints(cfg Config, n int, eval func(i int) error) error {
	width := cfg.sweepWidth()
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := cfg.Err(); err != nil {
				return err
			}
			if err := eval(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func(release func()) {
		defer wg.Done()
		if release != nil {
			defer release()
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := cfg.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = eval(i)
		}
	}
	wg.Add(1)
	go worker(nil)
	for w := 1; w < width; w++ {
		var release func()
		if cfg.Pool != nil {
			if !cfg.Pool.TryAcquire() {
				break
			}
			release = cfg.Pool.Release
		}
		wg.Add(1)
		go worker(release)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Axes shared by the microbenchmark sweeps (the paper's figures).
func readThreadAxis(quick bool) []int {
	if quick {
		return []int{4, 18, 36}
	}
	return []int{1, 4, 8, 16, 18, 24, 32, 36}
}

func writeThreadAxis(quick bool) []int {
	if quick {
		return []int{4, 18, 36}
	}
	return []int{1, 2, 4, 6, 8, 18, 24, 36}
}

func sizeAxis(quick bool) []int64 {
	if quick {
		return []int64{64, 4096, 65536}
	}
	return []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
}

// writeSizeAxis extends to 32 MiB, as the paper's write benchmark does
// ("access sizes from 64 Byte to 32 MB", Section 4.1).
func writeSizeAxis(quick bool) []int64 {
	if quick {
		return []int64{64, 4096, 65536}
	}
	return []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 1 << 20, 32 << 20}
}

func randomSizeAxis(quick bool) []int64 {
	if quick {
		return []int64{64, 4096}
	}
	return []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192}
}

func sizeLabels(sizes []int64) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		switch {
		case s >= 1<<20 && s%(1<<20) == 0:
			out[i] = fmt.Sprintf("%dM", s/(1<<20))
		case s >= 1024 && s%1024 == 0:
			out[i] = fmt.Sprintf("%dK", s/1024)
		default:
			out[i] = fmt.Sprintf("%d", s)
		}
	}
	return out
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

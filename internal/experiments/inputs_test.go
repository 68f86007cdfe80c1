package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/ssb"
)

// freshSFs numbers the scale factors freshSF has handed out.
var freshSFs int

// freshSF returns a scale factor whose data set is not built yet and that
// no earlier call returned, so the inputs a test counts start unbuilt, also
// when the tests repeat (-count).
func freshSF() float64 {
	for {
		freshSFs++
		if sf := 0.013 + 0.0001*float64(freshSFs); !cached(sf) {
			return sf
		}
	}
}

// builds is a snapshot of the input build counters: data sets generated,
// fact passes run on the data set at one sf, and ext05 partition builds.
type builds struct{ dataSets, factPasses, ext05 int64 }

func countBuilds(sf float64) builds {
	b := builds{dataSets: inputBuilds.dataSets.Load(), ext05: inputBuilds.ext05.Load()}
	dataCacheMu.Lock()
	get, ok := dataCache[sf]
	dataCacheMu.Unlock()
	if ok {
		b.factPasses = get().FactPasses()
	}
	return b
}

func cached(sf float64) bool {
	dataCacheMu.Lock()
	defer dataCacheMu.Unlock()
	_, ok := dataCache[sf]
	return ok
}

// inputBound splits the catalogue into the entries that declare inputs and
// those that do not, each in ID order.
func inputBound() (bound, free []Experiment) {
	for _, e := range All() {
		if e.Inputs != nil {
			bound = append(bound, e)
		} else {
			free = append(free, e)
		}
	}
	return bound, free
}

// TestDeclaredInputs: exactly the entries that read an SSB data set or
// ext05's partitions declare inputs.
func TestDeclaredInputs(t *testing.T) {
	bound, _ := inputBound()
	var ids []string
	for _, e := range bound {
		ids = append(ids, e.ID)
	}
	want := "ext02 ext03 ext05 ext06 ext07 fault04 fig14a fig14b ssd01 tab01"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("entries with inputs: %s, want %s", got, want)
	}
}

// TestInputsCoverRun: once an entry's declared inputs are built, its Run
// builds no further input. Each entry gets a fresh sf, so one entry's
// inputs cannot cover for another's.
func TestInputsCoverRun(t *testing.T) {
	bound, _ := inputBound()
	for _, e := range bound {
		cfg := Config{SF: freshSF(), Quick: true}
		before := countBuilds(cfg.SF)
		if err := e.Inputs(cfg); err != nil {
			t.Fatalf("%s inputs: %v", e.ID, err)
		}
		built := countBuilds(cfg.SF)
		if e.ID != "ext05" && built.dataSets != before.dataSets+1 {
			t.Errorf("%s inputs generated %d data sets, want 1", e.ID, built.dataSets-before.dataSets)
		}
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if after := countBuilds(cfg.SF); after != built {
			t.Errorf("%s: Run moved the input builds from %+v to %+v", e.ID, built, after)
		}
	}
}

// TestSecondMachineConfigRecomputesNoInput: inputs depend on no
// machine.Config, so running the input-bound entries again under another
// machine builds nothing, while the tables do change.
func TestSecondMachineConfigRecomputesNoInput(t *testing.T) {
	bound, _ := inputBound()
	cfg := Config{SF: freshSF(), Quick: true, Jobs: 2}
	var first bytes.Buffer
	if _, err := RunList(context.Background(), cfg, bound, &first); err != nil {
		t.Fatal(err)
	}
	built := countBuilds(cfg.SF)
	if built.factPasses != 1 {
		t.Errorf("first run: %d fact passes at sf %g, want 1", built.factPasses, cfg.SF)
	}
	mc := machine.DefaultConfig()
	mc.PMEM.MediaReadBytesPerSec *= 0.5
	cfg.Machine = &mc
	var second bytes.Buffer
	if _, err := RunList(context.Background(), cfg, bound, &second); err != nil {
		t.Fatal(err)
	}
	if after := countBuilds(cfg.SF); after != built {
		t.Errorf("second machine moved the input builds from %+v to %+v", built, after)
	}
	if first.String() == second.String() {
		t.Error("halving the PMEM media read rate changed no table")
	}
}

// TestRunConcurrentWidthsMatch: the whole catalogue, its input-bound
// entries alone and its input-free entries alone each render the same
// bytes at -j 1, 2 and 7. The first run builds the inputs on the warmer.
func TestRunConcurrentWidthsMatch(t *testing.T) {
	bound, free := inputBound()
	sf := freshSF()
	for _, l := range []struct {
		name string
		list []Experiment
	}{{"catalogue", All()}, {"input-bound", bound}, {"input-free", free}} {
		var want string
		for _, jobs := range []int{1, 2, 7} {
			cfg := Config{SF: sf, Quick: true, Jobs: jobs, EmitMetrics: true}
			var buf bytes.Buffer
			if _, err := RunList(context.Background(), cfg, l.list, &buf); err != nil {
				t.Fatalf("%s -j %d: %v", l.name, jobs, err)
			}
			if jobs == 1 {
				want = buf.String()
			} else if got := buf.String(); got != want {
				t.Errorf("%s: -j %d differs from -j 1:\n%s", l.name, jobs, firstDiff(want, got))
			}
		}
	}
}

// waitGoroutines waits until no more than n goroutines run.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still run, baseline %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunConcurrentCancelMidRun: canceling after the first result still
// yields one result per entry, closes the channel, and leaves no goroutine
// of the run behind.
func TestRunConcurrentCancelMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, canceled := 0, 0
	for res := range RunConcurrent(ctx, Config{SF: freshSF(), Quick: true, Jobs: 1}, All()) {
		if n == 0 {
			cancel()
		}
		n++
		if errors.Is(res.Err, context.Canceled) {
			canceled++
		}
	}
	if n != len(All()) {
		t.Errorf("%d results, want %d", n, len(All()))
	}
	if canceled == 0 {
		t.Error("no entry saw the cancellation")
	}
	waitGoroutines(t, baseline)
}

// holdGeneration makes dataAt's next generations block until the returned
// release is called; started receives each held sf.
func holdGeneration(t *testing.T) (started <-chan float64, release func()) {
	t.Helper()
	gate := make(chan struct{})
	// Room for the expected generation and an unexpected second one, so
	// neither blocks before the test looks.
	ch := make(chan float64, 2)
	prev := generate
	generate = func(sf float64) *ssb.Data {
		ch <- sf
		<-gate
		return prev(sf)
	}
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(func() {
		release()
		generate = prev
	})
	return ch, release
}

// TestRunConcurrentClosesAfterWarmer: the result channel stays open while
// the warmer is inside an input build, even after every result has been
// delivered, and closes once the build returns.
func TestRunConcurrentClosesAfterWarmer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	warming, gate := make(chan struct{}), make(chan struct{})
	free := Experiment{ID: "a", Run: func(c Config) ([]Table, error) {
		<-warming
		cancel()
		<-c.Context().Done()
		return nil, c.Err()
	}}
	bound := Experiment{ID: "b",
		Inputs: func(Config) error { close(warming); <-gate; return nil },
		Run: func(Config) ([]Table, error) {
			t.Error("input-bound entry ran after the cancellation")
			return nil, nil
		}}
	out := RunConcurrent(ctx, Config{Jobs: 1}, []Experiment{bound, free})
	for _, id := range []string{"a", "b"} {
		res := <-out
		if res.Experiment.ID != id || !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("result %s (err %v), want %s canceled", res.Experiment.ID, res.Err, id)
		}
	}
	select {
	case _, ok := <-out:
		t.Fatalf("channel yielded (open %v) while the warmer was still building", ok)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case _, ok := <-out:
		if ok {
			t.Fatal("extra result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel still open after the warmer returned")
	}
	waitGoroutines(t, baseline)
}

// TestDataAtLookupNotBlockedByGeneration: while one sf generates, dataAt of
// an already-cached sf returns, and a second caller of the generating sf
// shares its single build.
func TestDataAtLookupNotBlockedByGeneration(t *testing.T) {
	cachedSF := freshSF()
	warm := dataAt(cachedSF)
	slowSF := freshSF()
	started, release := holdGeneration(t)
	before := inputBuilds.dataSets.Load()
	got := make(chan *ssb.Data, 2)
	for i := 0; i < 2; i++ {
		go func() { got <- dataAt(slowSF) }()
	}
	if sf := <-started; sf != slowSF {
		t.Fatalf("held generation of sf %g, want %g", sf, slowSF)
	}
	done := make(chan *ssb.Data)
	go func() { done <- dataAt(cachedSF) }()
	select {
	case d := <-done:
		if d != warm {
			t.Error("cached lookup returned another data set")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dataAt of a cached sf blocked behind another sf's generation")
	}
	release()
	a, b := <-got, <-got
	if a != b || a.SF != slowSF {
		t.Errorf("concurrent callers got %p (sf %g) and %p (sf %g), want one data set at sf %g", a, a.SF, b, b.SF, slowSF)
	}
	if n := inputBuilds.dataSets.Load() - before; n != 1 {
		t.Errorf("%d generations for one sf, want 1", n)
	}
	select {
	case sf := <-started:
		t.Errorf("second generation of sf %g", sf)
	default:
	}
}

// TestCatalogueAtRateFloor: every device rate set to the smallest value a
// what-if config accepts still runs the whole quick catalogue to finite,
// non-negative tables.
func TestCatalogueAtRateFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("eleven catalogue runs")
	}
	leaves := map[string][]string{
		"PMEM": {"MediaReadBytesPerSec", "MediaWriteBytesPerSec"},
		"DRAM": {"SocketReadBytesPerSec", "SocketWriteBytesPerSec", "SystemReadBytesPerSec"},
		"UPI":  {"RawBytesPerSecPerDir", "ColdReadCapBytesPerSec"},
		"SSD":  {"SeqReadBytesPerSec", "SeqWriteBytesPerSec", "RandReadBytesPerSec", "RandWriteBytesPerSec"},
	}
	var specs []string
	for dev, ls := range leaves {
		for _, leaf := range ls {
			specs = append(specs, fmt.Sprintf(`{%q: {%q: %g}}`, dev, leaf, machine.MinBytesPerSec))
		}
	}
	sort.Strings(specs)
	if len(specs) != 11 {
		t.Fatalf("%d rate leaves, want 11", len(specs))
	}
	for _, spec := range specs {
		mc, err := machine.ConfigFromJSON(strings.NewReader(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		cfg := Config{SF: 0.02, Quick: true, Jobs: 2, Machine: &mc}
		for res := range RunConcurrent(context.Background(), cfg, All()) {
			if res.Err != nil {
				t.Errorf("%s: %v", spec, res.Err)
				continue
			}
			for _, tab := range res.Tables {
				for _, s := range tab.Series {
					for i, v := range s.Values {
						if v < 0 || v != v || v > 1e300 {
							t.Errorf("%s: %s %s value %d = %g", spec, tab.ID, s.Label, i, v)
						}
					}
				}
			}
		}
	}
}

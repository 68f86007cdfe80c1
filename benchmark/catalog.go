package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/simtrace"
)

// catalogSHA is the SHA-256 of `experiments -quick -sf 0.05 -j 1` output.
//
//go:embed testdata/catalog.sha256
var catalogSHA string

// catalogConfig is the call the catalog workload makes, the same as
// `experiments -quick -sf 0.05 -j 1`.
var catalogConfig = experiments.Config{SF: 0.05, Quick: true, Jobs: 1, SweepWidth: 1}

// catalogRun is one fresh-process catalogue run as its child reports it.
type catalogRun struct {
	SHA       string  `json:"sha"`
	MS        float64 `json:"ms"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runCatalogChild renders the whole catalogue through experiments.RunList
// into a hash and reports the digest and the call's wall time.
func runCatalogChild() (catalogRun, error) {
	h := sha256.New()
	start := time.Now()
	if _, err := experiments.RunList(context.Background(), catalogConfig, experiments.All(), h); err != nil {
		return catalogRun{}, err
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	rss, err := peakRSSMB()
	return catalogRun{SHA: hex.EncodeToString(h.Sum(nil)), MS: ms, PeakRSSMB: rss}, err
}

func checkCatalogSHA(got string) error {
	if want := strings.TrimSpace(catalogSHA); got != want {
		return fmt.Errorf("catalogue output sha256 %s, golden %s", got, want)
	}
	return nil
}

// catalogOnce runs the catalogue in one fresh process and checks its output.
func (p *parent) catalogOnce() (catalogRun, childResult, error) {
	var r catalogRun
	cr, err := p.spawn("catalog")
	if err != nil {
		return r, cr, err
	}
	if err := json.Unmarshal(cr.stdout, &r); err != nil {
		return r, cr, fmt.Errorf("catalog child: bad report: %w", err)
	}
	p.res.Attempted++
	if err := checkCatalogSHA(r.SHA); err != nil {
		p.res.Failed++
		p.res.errors = append(p.res.errors, err.Error())
	}
	return r, cr, nil
}

// catalogWarmups is how many fresh-process runs precede measurement; the
// median of their wall times is the catalog workload's set-up time.
const catalogWarmups = 3

func (p *parent) catalogMeasure() error {
	var setup, runs []timed
	var rss []float64
	t0 := time.Now()
	for len(setup) < catalogWarmups || len(runs) < 3 || time.Since(t0).Seconds() < p.f.seconds {
		ref, err := p.host.sample()
		if err != nil {
			return err
		}
		r, cr, err := p.catalogOnce()
		if err != nil {
			return err
		}
		if len(setup) < catalogWarmups {
			setup = append(setup, timed{ref, cr.wall.Seconds()})
			t0 = time.Now()
			continue
		}
		runs = append(runs, timed{ref, float64(cr.wall.Nanoseconds()) / 1e6})
		rss = append(rss, r.PeakRSSMB)
	}
	if _, err := p.host.sample(); err != nil {
		return err
	}
	p.setScaled("setup_s", setup, false)
	p.setScaled("lat_p50_ms", runs, false)
	var busy float64 // seconds of catalogue runs, normalized
	for _, ms := range p.host.scale(runs, false) {
		busy += ms / 1e3
	}
	p.vals["throughput_rps"] = float64(len(runs)) / busy
	var raw float64
	for _, ms := range values(runs) {
		raw += ms / 1e3
	}
	p.res.info["raw.throughput_rps"] = float64(len(runs)) / raw
	p.vals["peak_rss_mb"] = median(rss)
	wallMS := values(runs)
	sort.Float64s(wallMS)
	q := tailQuantile(len(wallMS))
	p.res.info["lat_tail_ms"] = nearestRank(wallMS, q)
	p.res.info["runs"] = float64(len(wallMS))
	p.res.info["tail_quantile"] = q
	return nil
}

// tailQuantile is the highest quantile with at least ten samples beyond
// it, capped at p99 and floored at the median.
func tailQuantile(n int) float64 {
	return min(max(1-10/float64(n), 0.5), 0.99)
}

// catalogTrace is the catalog workload's traced pass: untraced
// fresh-process runs for the tracing overhead, then the layer pass over
// the catalogue asked of pmemd twice.
func (p *parent) catalogTrace() error {
	var base, wallMS []float64
	for i := 0; i < catalogWarmups; i++ {
		r, cr, err := p.catalogOnce()
		if err != nil {
			return err
		}
		wallMS = append(wallMS, float64(cr.wall.Nanoseconds())/1e6)
		if i > 0 { // the first run warms the page cache
			base = append(base, r.MS)
		}
	}
	sort.Float64s(wallMS)
	p.vals["loadgen.lat_tail_ms"] = nearestRank(wallMS, tailQuantile(len(wallMS)))
	stream := catalogRequests()
	for _, r := range catalogRequests() {
		r.fresh = false
		stream = append(stream, r)
	}
	if err := p.layerPass(stream, simtrace.New()); err != nil {
		return err
	}
	p.vals["trace.overhead_frac"] = p.res.info["catalog.traced_ms"]/median(base) - 1
	return nil
}

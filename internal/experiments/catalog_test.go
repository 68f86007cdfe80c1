package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogSHA256Pin pins the whole catalogue's bytes absolutely: the
// output of `experiments -quick -sf 0.05 -j 1` must hash to the digest the
// repository benchmark checks every catalog run against. The golden is
// only read here; a deliberate output change updates it in the benchmark.
func TestCatalogSHA256Pin(t *testing.T) {
	golden, err := os.ReadFile("../../benchmark/testdata/catalog.sha256")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	cfg := Config{SF: 0.05, Quick: true, Jobs: 1, SweepWidth: 1}
	if _, err := RunList(context.Background(), cfg, All(), h); err != nil {
		t.Fatalf("RunList: %v", err)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), strings.TrimSpace(string(golden)); got != want {
		t.Errorf("catalogue sha256 %s, golden %s", got, want)
	}
}

// TestMetricsTraceSHA256Pin pins the observability outputs absolutely: the
// text of `experiments -quick -sf 0.02 -metrics -trace DIR` and every
// DIR/<id>.trace.json file must hash to the digests in
// testdata/metrics_trace.sha256 (sha256sum format). The catalogue pin above
// covers only the tables; this one covers the counters and timelines.
func TestMetricsTraceSHA256Pin(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_trace.sha256")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	h := sha256.New()
	cfg := Config{SF: 0.02, Quick: true, Jobs: 1, SweepWidth: 1, EmitMetrics: true, TraceDir: dir}
	if _, err := RunList(context.Background(), cfg, All(), h); err != nil {
		t.Fatalf("RunList: %v", err)
	}
	got := map[string]string{"metrics.txt": hex.EncodeToString(h.Sum(nil))}
	traces, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range traces {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[filepath.Base(path)] = hex.EncodeToString(sum[:])
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		digest, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	for name, digest := range want {
		if got[name] != digest {
			t.Errorf("%s sha256 %s, golden %s", name, got[name], digest)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s has no golden digest", name)
		}
	}
}

// TestSSBFactPassPerQuery: both SSB figures on one data set, four engines
// and 13 queries between them, run one fact pass.
func TestSSBFactPassPerQuery(t *testing.T) {
	cfg := Config{SF: freshSF(), Quick: true}
	data := dataAt(cfg.SF)
	if n := data.FactPasses(); n != 0 {
		t.Fatalf("fresh data set already ran %d fact passes", n)
	}
	if _, err := fig14a(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := fig14b(cfg); err != nil {
		t.Fatal(err)
	}
	if got := data.FactPasses(); got != 1 {
		t.Errorf("fig14a + fig14b ran %d fact passes, want 1", got)
	}
}

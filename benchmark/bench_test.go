package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(7, 1000, 20*time.Second)
	b := poissonSchedule(7, 1000, 20*time.Second)
	c := poissonSchedule(8, 1000, 20*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] && a[len(a)-1] == c[len(c)-1] {
		t.Fatalf("seeds 7 and 8 gave the same schedule")
	}
	// 20,000 expected arrivals: the count's standard deviation is 0.7%.
	if got := float64(len(a)) / 20; math.Abs(got-1000)/1000 > 0.03 {
		t.Fatalf("mean rate %.1f/s, want 1000/s within 3%%", got)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 20*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the horizon", i, a[i])
		}
	}
}

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0.5, 5}, {ten, 0.9, 9}, {ten, 0.91, 10}, {ten, 0.99, 10}, {ten, 0.1, 1}, {ten, 0.01, 1},
		{forty, 0.75, 30}, {[]float64{4}, 0.99, 4}, {nil, 0.5, 0},
	} {
		if got := nearestRank(c.xs, c.p); got != c.want {
			t.Errorf("nearestRank(n=%d, %g) = %g, want %g", len(c.xs), c.p, got, c.want)
		}
	}
	if got := tailQuantile(40); got != 0.75 {
		t.Errorf("tailQuantile(40) = %g, want 0.75 (10 samples beyond it)", got)
	}
	if got := tailQuantile(100000); got != 0.99 {
		t.Errorf("tailQuantile(1e5) = %g, want the p99 cap", got)
	}
}

func TestSendStartRule(t *testing.T) {
	due := time.Unix(100, 0)
	// The sender was busy: it pulled the request after it fell due. The
	// request is timed from its due time and the generator did not lag.
	pulled := due.Add(3 * time.Millisecond)
	start, lag := sendStart(due, pulled, pulled)
	if !start.Equal(due) || lag != 0 {
		t.Errorf("busy sender: start %v lag %v, want the due time and no lag", start.Sub(due), lag)
	}
	// The sender slept and woke late: timing starts at the wake-up and the
	// overshoot is the generator's lag.
	pulled = due.Add(-5 * time.Millisecond)
	woke := due.Add(400 * time.Microsecond)
	start, lag = sendStart(due, pulled, woke)
	if !start.Equal(woke) || lag != 400*time.Microsecond {
		t.Errorf("idle sender: start %v lag %v, want the wake-up and 400µs lag", start.Sub(due), lag)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMetricNamesAndSpec(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !valid.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Errorf("setup_s missing from the end-to-end metrics")
	}
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with -spec")
	}
}

func TestRespelledRequestsShareKeys(t *testing.T) {
	sc := scale{seconds: 2, short: true}
	for _, w := range workloads[1:] {
		p := makePlan(w, 3, sc)
		keys := map[string]string{}
		for _, reqs := range [][]request{p.setup, p.open, p.closed} {
			for _, r := range reqs {
				var rr server.RunRequest
				if err := json.Unmarshal(r.body, &rr); err != nil {
					t.Fatalf("%s: %s: %v", w.name, r.body, err)
				}
				k, err := server.KeyForRequest(rr, 1)
				if err != nil {
					t.Fatalf("%s: %s: %v", w.name, r.body, err)
				}
				if prev, ok := keys[r.ident]; ok && prev != k {
					t.Fatalf("%s: %s keys differently from its original spelling", w.name, r.body)
				}
				keys[r.ident] = k
			}
		}
		distinct := map[string]bool{}
		for _, k := range keys {
			distinct[k] = true
		}
		if len(distinct) != len(keys) {
			t.Fatalf("%s: %d idents map to %d keys: what-if keys collide", w.name, len(keys), len(distinct))
		}
		if w.name == "serve-cold" && len(keys) != len(p.setup)+len(p.open)+len(p.closed) {
			t.Fatalf("serve-cold repeats a request")
		}
	}
}

func TestCatalogGoldenGate(t *testing.T) {
	r, err := runCatalogChild()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCatalogSHA(r.SHA); err != nil {
		t.Fatal(err)
	}
	corrupt := []byte(r.SHA)
	corrupt[0] ^= 1
	if checkCatalogSHA(string(corrupt)) == nil {
		t.Fatal("a corrupted catalogue digest passed the golden check")
	}
}

// corrupting serves pmemd's answers with one body byte flipped after the
// content hash header was computed.
type corrupting struct{ h http.Handler }

func (c corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[len(body)/2] ^= 0x20
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestResponseGates(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good := httptest.NewServer(srv.Handler())
	defer good.Close()
	bad := httptest.NewServer(corrupting{srv.Handler()})
	defer bad.Close()

	body := []byte(`{"id":"fig04","quick":true,"sf":0.05}`)
	c := newClient(good.URL)
	defer c.close()
	tier, _, err := c.run(body, "fig04", "t-1")
	if err != nil || tier != "miss" {
		t.Fatalf("first answer: tier %q err %v", tier, err)
	}
	respelled := []byte(`{"sf":0.05,"faults":null,"quick":true,"id":"fig04","metrics":false}`)
	if tier, _, err := c.run(respelled, "fig04", "t-2"); err != nil || tier != "hit" {
		t.Fatalf("respelled answer: tier %q err %v", tier, err)
	}
	// A different request claiming the same identity must not match.
	if _, _, err := c.run([]byte(`{"id":"fig05","quick":true,"sf":0.05}`), "fig04", "t-3"); err == nil ||
		!strings.Contains(err.Error(), "differ") {
		t.Fatalf("different bytes for one identity passed: %v", err)
	}
	cb := newClient(bad.URL)
	defer cb.close()
	if _, _, err := cb.run(body, "fig04", "t-4"); err == nil || !strings.Contains(err.Error(), server.ContentSHAHeader) {
		t.Fatalf("a corrupted body passed the content hash check: %v", err)
	}
	// The tier check fails a hit where the workload demands computation.
	o := sender(c, []request{{body: body, ident: "fig04"}}, wantMiss)(0, "t-5")
	if o.err == nil {
		t.Fatalf("an LRU hit passed serve-cold's tier check")
	}
}

func TestValidityGates(t *testing.T) {
	ok := map[string]int{"disk": 90, "hit": 5, "miss": 5}
	if bad := gates("fleet-disk", ok, 0, 0.5); len(bad) != 0 {
		t.Fatalf("valid fleet-disk run flagged: %v", bad)
	}
	for _, c := range []struct {
		workload  string
		tiers     map[string]int
		coalesced float64
		lag       float64
	}{
		{"fleet-disk", map[string]int{"disk": 80, "hit": 15, "miss": 5}, 0, 0.5},
		{"serve-cold", map[string]int{"miss": 100}, 1, 0.5},
		{"serve-lru", map[string]int{"hit": 100}, 0, maxLagMS + 0.1},
	} {
		if bad := gates(c.workload, c.tiers, c.coalesced, c.lag); len(bad) != 1 {
			t.Errorf("%s %v coalesced %g lag %g: gates %v, want one violation", c.workload, c.tiers, c.coalesced, c.lag, bad)
		}
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
)

// faultBody throttles socket 0 mid-scan for the quick fig04 sweep.
const faultBody = `{"id":"fig04","quick":true,"sf":0.02,` +
	`"faults":{"events":[{"type":"dimm-throttle","start":0.3,"duration":1,"ramp":0.1,"factor":0.3}]}}`

// TestFaultedRunServedAndCached is the serving half of the acceptance
// criterion: a fault plan in the request produces measurably lower bandwidth
// than the healthy run, the degraded result is cached under its own key, and
// the cached bytes equal the cold bytes.
func TestFaultedRunServedAndCached(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	_, healthyBytes := postRun(t, ts, quickBody)
	respCold, faultedCold := postRun(t, ts, faultBody)
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("faulted cold run: status %d, body %s", respCold.StatusCode, faultedCold)
	}
	if got := respCold.Header.Get("X-Pmemd-Cache"); got != "miss" {
		t.Errorf("faulted cold run cache header = %q, want miss (must not alias the healthy entry)", got)
	}
	if string(healthyBytes) == string(faultedCold) {
		t.Error("faulted result identical to healthy result; plan had no effect")
	}

	var healthy, faulted RunResult
	if err := json.Unmarshal(healthyBytes, &healthy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(faultedCold, &faulted); err != nil {
		t.Fatal(err)
	}
	// fig04's PinCores series peaks the scan; under the throttle every
	// column's bandwidth must be at or below healthy, strictly below in sum.
	var healthySum, faultedSum float64
	for si, ser := range healthy.Tables[0].Series {
		for vi, v := range ser.Values {
			healthySum += v
			faultedSum += faulted.Tables[0].Series[si].Values[vi]
		}
	}
	if faultedSum >= healthySum*0.99 {
		t.Errorf("faulted sweep sum %.2f not below healthy %.2f", faultedSum, healthySum)
	}

	respHit, faultedHit := postRun(t, ts, faultBody)
	if got := respHit.Header.Get("X-Pmemd-Cache"); got != "hit" {
		t.Errorf("faulted re-run cache header = %q, want hit", got)
	}
	if string(faultedCold) != string(faultedHit) {
		t.Error("cached faulted bytes differ from cold faulted bytes")
	}
	_ = s
}

// TestFaultedDeterminismAcrossWidths: same fault plan, 1-wide vs 4-wide
// server pools, byte-identical responses.
func TestFaultedDeterminismAcrossWidths(t *testing.T) {
	_, ts1 := newTestServer(t, Options{Workers: 1})
	_, ts4 := newTestServer(t, Options{Workers: 4})
	_, b1 := postRun(t, ts1, faultBody)
	_, b4 := postRun(t, ts4, faultBody)
	if string(b1) != string(b4) {
		t.Error("faulted response bytes differ between 1-wide and 4-wide servers")
	}
}

func TestBadFaultPlanRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postRun(t, ts,
		`{"id":"fig04","quick":true,"faults":{"events":[{"type":"quantum-flip","start":0}]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "bad fault plan") {
		t.Errorf("error %s does not identify the fault plan", body)
	}
}

// TestPanicContained submits a plan with an injected panic: the job must
// fail with a structured error, the panic must be counted, and the daemon
// must keep serving /healthz and further runs.
func TestPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, body := postRun(t, ts,
		`{"id":"fig04","quick":true,"sf":0.02,"faults":{"events":[{"type":"panic","start":0.1}]}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500; body %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "panicked") {
		t.Errorf("want structured panic error, got %s", body)
	}
	if v := counter(t, s, "server_job_panics_total"); v != 1 {
		t.Errorf("server_job_panics_total = %v, want 1", v)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon dead after panic: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz after panic: %d", hz.StatusCode)
	}
	if resp2, _ := postRun(t, ts, quickBody); resp2.StatusCode != http.StatusOK {
		t.Errorf("healthy run after panic: status %d", resp2.StatusCode)
	}
}

// TestTransientRetrySucceeds exercises the bounded-retry path end to end
// with the real simulate runFn: a plan with one transient-error event fails
// attempt 1, succeeds on attempt 2, and the final bytes equal the same
// request without the transient event.
func TestTransientRetrySucceeds(t *testing.T) {
	s, ts := newTestServer(t, Options{RetryBackoff: time.Millisecond})
	withTransient := `{"id":"fig04","quick":true,"sf":0.02,` +
		`"faults":{"events":[{"type":"transient-error","count":1}]}}`
	resp, body := postRun(t, ts, withTransient)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient run: status %d, body %s", resp.StatusCode, body)
	}
	if v := counter(t, s, "server_job_retries_total"); v != 1 {
		t.Errorf("server_job_retries_total = %v, want 1", v)
	}
	var withRes, plainRes RunResult
	if err := json.Unmarshal(body, &withRes); err != nil {
		t.Fatal(err)
	}
	_, plain := postRun(t, ts, quickBody)
	if err := json.Unmarshal(plain, &plainRes); err != nil {
		t.Fatal(err)
	}
	// Same tables: the transient events only exist on the serving axis.
	aw, _ := json.Marshal(withRes.Tables)
	pl, _ := json.Marshal(plainRes.Tables)
	if string(aw) != string(pl) {
		t.Error("transient-error plan changed the simulated tables")
	}
}

// TestTransientRetriesExhausted: more injected failures than the retry
// budget fails the job with the transient error, counting each retry.
func TestTransientRetriesExhausted(t *testing.T) {
	s, ts := newTestServer(t, Options{RetryAttempts: 2, RetryBackoff: time.Millisecond})
	var attempts atomic.Int64
	s.runFn = func(ctx context.Context, c canonical, attempt int) (RunResult, metrics.Snapshot, []byte, error) {
		attempts.Add(1)
		return RunResult{}, metrics.Snapshot{}, nil, fmt.Errorf("always: %w", faults.ErrTransient)
	}
	resp, body := postRun(t, ts, quickBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "transient") {
		t.Errorf("error does not carry the transient cause: %s", body)
	}
	if got := attempts.Load(); got != 3 { // 1 try + 2 retries
		t.Errorf("runFn invoked %d times, want 3", got)
	}
	if v := counter(t, s, "server_job_retries_total"); v != 2 {
		t.Errorf("server_job_retries_total = %v, want 2", v)
	}
}

// TestReadyzRetryAfterWhileDraining: the drain 503 carries Retry-After so
// load balancers back off instead of tight-probing a shutting-down node.
func TestReadyzRetryAfterWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining /readyz has no Retry-After header")
	}
}

// TestBadMachineRateRejected: a what-if device rate or granularity that is
// not positive is a 400 naming the field, not a cached wrong answer (-1)
// or a mid-run engine stall (0).
func TestBadMachineRateRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, c := range []struct{ machine, field string }{
		{`{"PMEM":{"MediaReadBytesPerSec":-1}}`, "PMEM.MediaReadBytesPerSec"},
		{`{"PMEM":{"MediaReadBytesPerSec":0}}`, "PMEM.MediaReadBytesPerSec"},
		{`{"PMEM":{"Granularity":0}}`, "PMEM.Granularity"},
		{`{"SSD":{"SeqWriteBytesPerSec":-2.5e9}}`, "SSD.SeqWriteBytesPerSec"},
	} {
		resp, body := postRun(t, ts, `{"id":"fig03","quick":true,"machine":`+c.machine+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("machine %s: status %d, want 400; body %s", c.machine, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), c.field) {
			t.Errorf("machine %s: error %s does not name %s", c.machine, body, c.field)
		}
	}
	for _, name := range []string{"server_jobs_done", "server_jobs_failed"} {
		if v := counter(t, s, name); v != 0 {
			t.Errorf("%s = %v after rejected requests, want 0", name, v)
		}
	}
}

// TestMachineRateFloor: a positive device rate below machine.MinBytesPerSec
// is a 400 naming the field, not a 500 from an exhausted event loop; the
// serving experiment that exhausted it runs at the floor.
func TestMachineRateFloor(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, v := range []string{"1", "1e-300", "999999"} {
		resp, body := postRun(t, ts, `{"id":"serve01","quick":true,"machine":{"PMEM":{"MediaReadBytesPerSec":`+v+`}}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("rate %s: status %d, want 400; body %s", v, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "PMEM.MediaReadBytesPerSec") {
			t.Errorf("rate %s: error %s does not name PMEM.MediaReadBytesPerSec", v, body)
		}
	}
	if v := counter(t, s, "server_jobs_done"); v != 0 {
		t.Errorf("server_jobs_done = %v after rejected requests, want 0", v)
	}
	resp, body := postRun(t, ts, fmt.Sprintf(`{"id":"serve01","quick":true,"machine":{"PMEM":{"MediaReadBytesPerSec":%g}}}`, machine.MinBytesPerSec))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("rate at the floor: status %d, want 200; body %s", resp.StatusCode, body)
	}
}

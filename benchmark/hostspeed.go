package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Host-speed normalization. On a shared 2-core host, neighbours slow every
// process on the machine by 20-50% for seconds to minutes at a time, in CPU
// time as much as in wall time, so no statistic taken within a 20 s run
// removes it. The benchmark therefore times a reference, which no change
// to the repository can speed up, before and after every timed operation,
// and scales each operation to the reference's nominal speed: a metric
// reads as it would on the reference host at its quiet speed.
//
// Each workload uses the reference whose work resembles its own. Where
// requests simulate (catalog, serve-cold) it is a CPU kernel; where they
// are microsecond cache reads between processes (serve-lru, fleet-disk) it
// is round trips over loopback HTTP to an idle echo child. On a noisy host
// this roughly halved the spread of lat_p50_ms and throughput_rps over ten
// runs of each workload (see README.md).

// refKind names a workload's reference.
type refKind int

const (
	refCPU refKind = iota
	refEcho
)

// Nominal reference times on a quiet 2-core Intel Xeon host. They only
// set the scale normalized metrics read in.
const (
	cpuNominalMS  = 45.0 // one refKernel
	echoNominalMS = 12.0 // pings round trips
)

// pings is how many sequential round trips one echo sample times.
const pings = 200

var (
	refInts = func() []int {
		rng := rand.New(rand.NewSource(1))
		x := make([]int, 300_000)
		for i := range x {
			x[i] = rng.Int()
		}
		return x
	}()
	refBytes = make([]byte, 8<<20)
	refSink  int
)

// refKernel sorts, hashes and updates a map: branchy, cache-resident and
// allocating work like the simulator's.
func refKernel() {
	x := append([]int(nil), refInts...)
	sort.Ints(x)
	sum := sha256.Sum256(refBytes)
	m := make(map[int]int)
	for i, v := range x {
		m[v%100_000] += i
	}
	refSink += x[0] + int(sum[0]) + len(m)
}

// hostSpeed collects one workload's reference timings over a run.
type hostSpeed struct {
	kind refKind
	echo *sut // the echo child, for refEcho
	ms   []float64
}

// sample times the reference once and returns the sample's index. Call it
// only while the system under test is idle: before every timed operation
// and once after the last.
func (h *hostSpeed) sample() (int, error) {
	start := time.Now()
	if h.kind == refCPU {
		refKernel()
	} else {
		for i := 0; i < pings; i++ {
			resp, err := h.echo.hc.Get(h.echo.front + "/ping")
			if err != nil {
				return 0, fmt.Errorf("echo reference: %w", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	h.ms = append(h.ms, float64(time.Since(start).Nanoseconds())/1e6)
	return len(h.ms) - 1, nil
}

// timed is one operation's measured value and the index of the sample
// taken just before it; the next sample follows it.
type timed struct {
	ref int
	v   float64
}

// scale normalizes each operation by the samples around it: a time is
// multiplied, a rate divided, by the nominal reference time over their
// mean.
func (h *hostSpeed) scale(ts []timed, rate bool) []float64 {
	nominal := cpuNominalMS
	if h.kind == refEcho {
		nominal = echoNominalMS
	}
	out := make([]float64, len(ts))
	for i, t := range ts {
		f := nominal / ((h.ms[t.ref] + h.ms[t.ref+1]) / 2)
		if rate {
			out[i] = t.v / f
		} else {
			out[i] = t.v * f
		}
	}
	return out
}

func values(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.v
	}
	return out
}

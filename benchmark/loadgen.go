package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtrace"
)

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate requests per second over dur, drawn from seed. The same seed always
// yields the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// sendStart applies the open-loop timing rule. A request whose sender was
// still busy when it fell due is timed from its due time, so backlog counts
// as latency. A request whose sender slept until it fell due is timed from
// the wake-up, so timer overshoot does not; the overshoot is returned as
// the generator's lag instead.
func sendStart(due, pulled, woke time.Time) (start time.Time, lag time.Duration) {
	if !pulled.Before(due) {
		return due, 0
	}
	return woke, woke.Sub(due)
}

// nearestRank returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples at
// or below it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is what one request reported back to the load generator.
type outcome struct {
	tier string // X-Pmemd-Cache: miss | hit | disk | coalesced
	err  error
}

// shot is one completed request as the load generator saw it.
type shot struct {
	latency time.Duration
	lag     time.Duration
	outcome
}

// sendFunc fires request i of a phase. reqID is the X-Request-ID to send.
type sendFunc func(i int, reqID string) outcome

// spanSink records one client span per request when a phase is traced.
type spanSink struct {
	proc   *simtrace.Process
	epoch  time.Time
	module string
}

func (s *spanSink) span(sender int, start time.Time, d time.Duration, reqID, tier string) {
	if s == nil {
		return
	}
	s.proc.Thread(sender, "sender "+strconv.Itoa(sender))
	s.proc.Span("loadgen", s.module, sender, start.Sub(s.epoch).Seconds(), d.Seconds(),
		simtrace.S("request_id", reqID), simtrace.S("tier", tier))
}

// openLoop sends request i at offset sched[i] from the phase start, with
// `senders` concurrent senders. A sender that falls behind sends the next
// due request immediately and that request's latency counts the backlog.
func openLoop(sched []time.Duration, senders int, prefix string, send sendFunc, trace *spanSink) []shot {
	shots := make([]shot, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := t0.Add(sched[i])
				pulled := time.Now()
				woke := pulled
				if pulled.Before(due) {
					time.Sleep(due.Sub(pulled))
					woke = time.Now()
				}
				start, lag := sendStart(due, pulled, woke)
				id := prefix + strconv.Itoa(i)
				o := send(i, id)
				end := time.Now()
				shots[i] = shot{latency: end.Sub(start), lag: lag, outcome: o}
				trace.span(w, start, end.Sub(start), id, o.tier)
			}
		}(w)
	}
	wg.Wait()
	return shots
}

// closedLoop sends n requests from `clients` clients, each sending its next
// request as soon as the previous one is answered. It returns the shots
// and the wall time of the whole loop.
func closedLoop(n, clients int, prefix string, send sendFunc) ([]shot, time.Duration) {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				start := time.Now()
				o := send(i, prefix+strconv.Itoa(i))
				shots[i] = shot{latency: time.Since(start), outcome: o}
			}
		}()
	}
	wg.Wait()
	return shots, time.Since(t0)
}

// latencyMS returns the shots' latencies in milliseconds, sorted.
func latencyMS(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		out[i] = float64(s.latency.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// lagMS returns the shots' generator lag in milliseconds, sorted.
func lagMS(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		out[i] = float64(s.lag.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// Package partition implements the multi-socket data-partitioning schemes
// the paper points to for PMEM-aware systems (Sections 3.5 and 6.2): the
// goal is to "stripe data into independent and evenly distributed data sets
// across the PMEM of all sockets" so that every thread reads only near
// memory. The package provides round-robin, hash, and range partitioners,
// imbalance metrics, and a skew generator for evaluating how uneven
// partitions waste bandwidth (the paper: "creating optimal partitions is
// not always possible and generally hard to achieve, e.g., due to skewed
// data").
package partition

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Scheme selects a partitioning strategy.
type Scheme int

const (
	// RoundRobin assigns tuple i to socket i % n: perfectly balanced,
	// key-oblivious (the paper's "shuffled and striped" fact table).
	RoundRobin Scheme = iota
	// ByHash assigns by key hash: balanced for distinct-heavy keys, robust
	// to value skew but not to frequency skew of a single hot key.
	ByHash
	// ByRange splits the observed key domain into equal-width ranges: good
	// locality for range queries, badly imbalanced under skew.
	ByRange
)

func (s Scheme) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case ByHash:
		return "hash"
	case ByRange:
		return "range"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Assignment maps tuples to sockets.
type Assignment struct {
	Sockets int
	// Of[i] is the socket of tuple i.
	Of []uint8
	// Counts[s] is the number of tuples on socket s.
	Counts []int64
}

// Partition assigns each key's tuple to a socket under the scheme.
func Partition(keys []uint64, sockets int, scheme Scheme) (Assignment, error) {
	if sockets < 1 || sockets > 255 {
		return Assignment{}, fmt.Errorf("partition: sockets = %d out of range", sockets)
	}
	a := Assignment{Sockets: sockets, Of: make([]uint8, len(keys)), Counts: make([]int64, sockets)}
	switch scheme {
	case RoundRobin:
		for i := range keys {
			s := uint8(i % sockets)
			a.Of[i] = s
			a.Counts[s]++
		}
	case ByHash:
		for i, k := range keys {
			s := uint8(mix(k) % uint64(sockets))
			a.Of[i] = s
			a.Counts[s]++
		}
	case ByRange:
		if len(keys) == 0 {
			return a, nil
		}
		lo, hi := keys[0], keys[0]
		for _, k := range keys {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		span := hi - lo + 1
		for i, k := range keys {
			s := uint8(uint64(sockets) * (k - lo) / span)
			if int(s) >= sockets {
				s = uint8(sockets - 1)
			}
			a.Of[i] = s
			a.Counts[s]++
		}
	default:
		return Assignment{}, fmt.Errorf("partition: unknown scheme %v", scheme)
	}
	return a, nil
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Imbalance returns max partition size over the mean: 1.0 is perfect.
func (a Assignment) Imbalance() float64 {
	if len(a.Counts) == 0 {
		return 1
	}
	var total, max int64
	for _, c := range a.Counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(a.Counts))
	return float64(max) / mean
}

// ScanMakespanFactor returns how much longer a near-only parallel scan of
// the partitions takes compared to a balanced layout: with each socket
// scanning its own partition at equal bandwidth, the makespan is set by the
// largest partition, so the factor equals Imbalance().
func (a Assignment) ScanMakespanFactor() float64 { return a.Imbalance() }

// EffectiveBandwidthFraction is the share of the machine's aggregate
// near-read bandwidth an imbalanced layout actually delivers (1/Imbalance).
func (a Assignment) EffectiveBandwidthFraction() float64 {
	return 1 / a.Imbalance()
}

// ZipfKeys generates n keys from an approximate Zipf(s) distribution over
// [0, domain), deterministically. s = 0 is uniform; s around 1 is the
// classic heavy skew. Used to evaluate partitioning under skew. Key i
// depends only on i, so the keys are filled on GOMAXPROCS goroutines and
// are the same for any number of them.
func ZipfKeys(n int, domain uint64, s float64, seed uint64) []uint64 {
	return zipfKeys(n, domain, s, seed, runtime.GOMAXPROCS(0))
}

// zipfKeys is ZipfKeys on at most workers goroutines, each filling one
// contiguous range of the keys.
func zipfKeys(n int, domain uint64, s float64, seed uint64, workers int) []uint64 {
	if domain == 0 {
		domain = 1
	}
	keys := make([]uint64, n)
	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zipfFill(keys[lo:min(lo+chunk, n)], lo, domain, s, seed)
		}()
	}
	wg.Wait()
	return keys
}

// zipfFill sets keys[x] to key lo+x.
func zipfFill(keys []uint64, lo int, domain uint64, s float64, seed uint64) {
	if s <= 0 {
		for x := range keys {
			keys[x] = mix(seed+uint64(lo+x)) % domain
		}
		return
	}
	// Inverse-CDF sampling of a bounded Pareto approximating Zipf ranks:
	// rank = domain * u^(1/s') with s' shaping the tail.
	shape := 1 / s
	for x := range keys {
		u := float64(mix(seed+uint64(lo+x))%1_000_000_007) / 1_000_000_007
		if u <= 0 {
			u = 0.5 / 1_000_000_007
		}
		r := math.Pow(u, 1+shape) // small u -> small rank; skews mass to low keys
		keys[x] = uint64(r * float64(domain))
		if keys[x] >= domain {
			keys[x] = domain - 1
		}
	}
}

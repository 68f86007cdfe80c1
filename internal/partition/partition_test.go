package partition

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinBalanced(t *testing.T) {
	keys := make([]uint64, 1000)
	a, err := Partition(keys, 2, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts[0] != 500 || a.Counts[1] != 500 {
		t.Errorf("round-robin counts = %v, want 500/500", a.Counts)
	}
	if got := a.Imbalance(); got != 1 {
		t.Errorf("Imbalance = %g, want 1", got)
	}
}

func TestHashBalancedOnUniformKeys(t *testing.T) {
	keys := ZipfKeys(100000, 1<<32, 0, 42) // uniform
	a, err := Partition(keys, 4, ByHash)
	if err != nil {
		t.Fatal(err)
	}
	if imb := a.Imbalance(); imb > 1.05 {
		t.Errorf("hash imbalance on uniform keys = %.3f, want ~1", imb)
	}
}

func TestRangeImbalancedOnSkew(t *testing.T) {
	uniform := ZipfKeys(100000, 1<<20, 0, 7)
	skewed := ZipfKeys(100000, 1<<20, 1.0, 7)

	au, err := Partition(uniform, 2, ByRange)
	if err != nil {
		t.Fatal(err)
	}
	as, err := Partition(skewed, 2, ByRange)
	if err != nil {
		t.Fatal(err)
	}
	if au.Imbalance() > 1.1 {
		t.Errorf("range on uniform keys imbalance = %.3f, want ~1", au.Imbalance())
	}
	if as.Imbalance() < 1.3 {
		t.Errorf("range on skewed keys imbalance = %.3f, want clearly > 1.3", as.Imbalance())
	}
	// Hash partitioning shrugs off the same skew (skewed *values*, but the
	// keys are still mostly distinct).
	ah, err := Partition(skewed, 2, ByHash)
	if err != nil {
		t.Fatal(err)
	}
	if ah.Imbalance() > as.Imbalance() {
		t.Errorf("hash (%.3f) worse than range (%.3f) under skew", ah.Imbalance(), as.Imbalance())
	}
}

func TestBandwidthFractionIsInverseImbalance(t *testing.T) {
	skewed := ZipfKeys(50000, 1<<20, 1.2, 3)
	a, err := Partition(skewed, 2, ByRange)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.EffectiveBandwidthFraction(), 1/a.Imbalance(); got != want {
		t.Errorf("EffectiveBandwidthFraction = %g, want %g", got, want)
	}
	if a.ScanMakespanFactor() != a.Imbalance() {
		t.Error("ScanMakespanFactor != Imbalance")
	}
}

func TestPartitionValidation(t *testing.T) {
	if _, err := Partition(nil, 0, RoundRobin); err == nil {
		t.Error("sockets=0 accepted")
	}
	if _, err := Partition(nil, 300, RoundRobin); err == nil {
		t.Error("sockets=300 accepted")
	}
	if _, err := Partition([]uint64{1}, 2, Scheme(9)); err == nil {
		t.Error("unknown scheme accepted")
	}
	if Scheme(9).String() == "" {
		t.Error("empty scheme string")
	}
}

func TestEmptyKeys(t *testing.T) {
	for _, sch := range []Scheme{RoundRobin, ByHash, ByRange} {
		a, err := Partition(nil, 2, sch)
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		if a.Imbalance() != 1 {
			t.Errorf("%v: empty imbalance = %g", sch, a.Imbalance())
		}
	}
}

// Property: every tuple lands on a valid socket and counts are consistent.
func TestAssignmentConsistencyProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, schemeRaw uint8) bool {
		n := int(nRaw%2000) + 1
		scheme := Scheme(schemeRaw % 3)
		keys := ZipfKeys(n, 1<<16, 0.8, seed)
		a, err := Partition(keys, 4, scheme)
		if err != nil {
			return false
		}
		counts := make([]int64, 4)
		for _, s := range a.Of {
			if int(s) >= 4 {
				return false
			}
			counts[s]++
		}
		for i := range counts {
			if counts[i] != a.Counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ZipfKeys is deterministic and in-domain.
func TestZipfKeysProperty(t *testing.T) {
	f := func(seed uint64, sRaw uint8) bool {
		s := float64(sRaw%20) / 10
		a := ZipfKeys(500, 1000, s, seed)
		b := ZipfKeys(500, 1000, s, seed)
		for i := range a {
			if a[i] != b[i] || a[i] >= 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestZipfKeysWidthInvariant: the keys do not depend on how many
// goroutines fill them, including widths that split the keys unevenly.
func TestZipfKeysWidthInvariant(t *testing.T) {
	const n = 7*1000 + 5
	for _, s := range []float64{0, 1.1} {
		one := zipfKeys(n, 1<<24, s, 11, 1)
		for _, w := range []int{2, 7} {
			got := zipfKeys(n, 1<<24, s, 11, w)
			for i := range one {
				if got[i] != one[i] {
					t.Fatalf("s=%g: key %d is %d at width %d, %d at width 1", s, i, got[i], w, one[i])
				}
			}
		}
	}
}

// BenchmarkZipfKeys generates ext05's skewed keys.
func BenchmarkZipfKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ZipfKeys(200_000, 1<<24, 1.1, 11)
	}
}

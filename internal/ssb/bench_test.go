package ssb

import "testing"

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceQ21(b *testing.B) {
	d := MustGenerate(0.01)
	q, err := QueryByID("Q2.1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reference(d, q)
	}
}

// BenchmarkFactPass runs the shared fact pass for all 13 queries on one
// worker, the per-data-set query work of the SSB experiments, and reports
// its cost per fact row.
func BenchmarkFactPass(b *testing.B) {
	d := MustGenerate(0.05)
	qs := Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.factPass(qs, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Rows()), "ns/row")
}

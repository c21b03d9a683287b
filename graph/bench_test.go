package graph

import "testing"

// benchSink keeps the benchmarked graphs live.
var benchSink *CSR

// BenchmarkGenRMAT measures Kronecker generation (dataset-build cost).
func BenchmarkGenRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenRMAT("bench", 14, 16, DefaultRMAT, 64, int64(i))
	}
}

// BenchmarkGenRMATN builds the sssp-rmat benchmark workload's graph
// (40,000 vertices × 35), which is nearly all of that workload's setup_s.
func BenchmarkGenRMATN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = GenRMATN("twitter", 40000, 35, DefaultRMAT, 64, 7)
	}
}

// BenchmarkRMATStream builds the same shape through the constant-memory
// stream, which walks the recursion twice (count, then scatter).
func BenchmarkRMATStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = FromStream(NewRMATStream("twitter", 40000, 35, DefaultRMAT, 64, 7))
	}
}

// BenchmarkGenUniform builds the serve-zipf benchmark workload's graph
// shape (20,000 vertices × 8) through the materializing generator.
func BenchmarkGenUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = GenUniform("serve", 20000, 8, 64, 7)
	}
}

// BenchmarkGenGrid builds the pr-road benchmark workload's graph (a
// 340 × 272 lattice at drop 0.39).
func BenchmarkGenGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = GenGrid("road", 340, 272, 0.39, 64, 7)
	}
}

// BenchmarkTranspose measures CSR reversal (needed for BC and pull mode):
// the build, not the shared view Transpose returns after its first call.
func BenchmarkTranspose(b *testing.B) {
	g := GenRMAT("bench", 15, 16, DefaultRMAT, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = g.transpose()
	}
}

// BenchmarkSymmetrize measures the sort-based dedup used for CC inputs:
// the build, not the shared view Symmetrize returns after its first call.
func BenchmarkSymmetrize(b *testing.B) {
	g := GenRMAT("bench", 14, 16, DefaultRMAT, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = g.symmetrize()
	}
}

// BenchmarkPartitionLocality measures the RABBIT-like clustering cost the
// paper's preprocessing-cost discussion worries about.
func BenchmarkPartitionLocality(b *testing.B) {
	g := GenRMAT("bench", 15, 16, DefaultRMAT, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionLocality(g, 8)
	}
}

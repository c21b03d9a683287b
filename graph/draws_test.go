package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestDrawsMatchMathRand holds the generators' draw path to math/rand:
// draws to rand.Rand on the same seed, and threshold to the float
// comparisons it replaces.
func TestDrawsMatchMathRand(t *testing.T) {
	t.Run("methods", testDrawMethods)
	t.Run("uniformN", testUniformN)
	t.Run("resample", testResample)
	t.Run("threshold", testThreshold)
}

// uniformNs are the n the per-n draws are checked at: n = 1, which keeps
// intn's path, a power of two and other n < 2³¹, which take the direct
// remainder, the largest of them, and one past 2³¹−1, which keeps intn's
// path too.
var uniformNs = []int{1, 3, 7, 64, 20000, 40000, 1 << 30, 1<<30 + 1, 1<<31 - 1, 3e9}

// testDrawMethods checks every method of draws against its rand.Rand
// original, interleaved so that the two streams cross many 607-output
// blocks at different offsets, including Intn's rejection loops (n = 2³⁰+1
// and 2⁶²+1 reject about half their draws) and its 63-bit branch up to
// weight's largest maxWeight, 2³²−1.
func testDrawMethods(t *testing.T) {
	ns := []int{
		1, 2, 64, 1 << 20, 1 << 30, 1 << 31, 1 << 32, // powers of two
		3, 7, 63, 20000, 40000, 1<<30 + 1, 1<<31 - 1, // odd and other n < 2³¹
		1<<31 + 1, 3 << 31, 1<<32 - 1, 1<<62 + 1, math.MaxInt64, // n ≥ 2³¹
	}
	perms := []int{0, 1, 2, 607, 1000}
	var uniforms []uniformN
	for _, n := range uniformNs {
		uniforms = append(uniforms, newUniformN(n))
	}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		var got draws
		got.seed(seed)
		calls := 0
		for i := 0; i < 60000; i++ {
			if g, w := got.uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, call %d: uint64 %#x, Uint64 %#x", seed, calls, g, w)
			}
			if g, w := int64(got.uint64()&mask63), want.Int63(); g != w {
				t.Fatalf("seed %d, call %d: uint64 & mask63 %d, Int63 %d", seed, calls+1, g, w)
			}
			if g, w := unitFloat(got.unit()), want.Float64(); g != w {
				t.Fatalf("seed %d, call %d: unit %v, Float64 %v", seed, calls+2, g, w)
			}
			for _, n := range ns {
				if g, w := got.intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d, call %d: intn(%d) %d, Intn %d", seed, calls+3, n, g, w)
				}
			}
			calls += 3 + len(ns)
			for k := range uniforms {
				u := &uniforms[k]
				if g, w := got.uniform(u), want.Intn(u.n); g != w {
					t.Fatalf("seed %d, call %d: uniform(%d) %d, Intn %d", seed, calls, u.n, g, w)
				}
				calls++
			}
			if i%100 == 0 {
				n := perms[i/100%len(perms)]
				g, w := got.perm(n), want.Perm(n)
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("seed %d, call %d: perm(%d)[%d] %d, Perm %d", seed, calls, n, j, g[j], w[j])
					}
				}
				calls++
			}
		}
		// Every call above draws at least once: well past 10⁶ draws.
		if calls < 1e6 {
			t.Fatalf("seed %d: %d calls, want at least 10⁶", seed, calls)
		}
	}
}

// testThreshold holds threshold(t) to being the least 63-bit draw whose
// Float64 is at least t, which makes the integer comparisons of the R-MAT
// sampler and the grid's drop test agree with the float ones on every
// draw: the draw just below the threshold compares below t, and the
// threshold itself at or above it.
func testThreshold(t *testing.T) {
	p := DefaultRMAT
	ts := []float64{0, p.A, p.A + p.B, p.A + p.B + p.C, 0.39, 0.2, 1, 0.5, 1e-300, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()
		// A uniform t, and ones on and next to a value a draw can take.
		ts = append(ts, x, math.Nextafter(x, 2), math.Nextafter(x, -1), unitFloat(uint64(rng.Int63())))
	}
	for _, x := range ts {
		T := threshold(x)
		if T >= 1<<63 || unitFloat(T) < x {
			t.Errorf("t=%v: threshold %#x reads %v, below t", x, T, unitFloat(T))
		}
		if T > 0 && unitFloat(T-1) >= x {
			t.Errorf("t=%v: threshold %#x is not the least: %#x reads %v", x, T, T-1, unitFloat(T-1))
		}
	}
	if got := threshold(1); got != unitEnd {
		t.Errorf("threshold(1) = %#x, unitEnd %#x", got, uint64(unitEnd))
	}
	// Past the draws' range: no draw reaches t, so every draw is below it.
	for _, x := range []float64{math.Nextafter(1, 2), 2, math.Inf(1), math.NaN()} {
		if got := threshold(x); got != 1<<63 {
			t.Errorf("threshold(%v) = %#x, want 2⁶³", x, got)
		}
	}
	for _, x := range []float64{-1, math.Inf(-1), math.Copysign(0, -1)} {
		if got := threshold(x); got != 0 {
			t.Errorf("threshold(%v) = %#x, want 0", x, got)
		}
	}
}

// testResample covers the draws that rand.Float64 rounds to 1 and draws
// again, which a seeded stream meets about once in 2⁵⁴ draws: it plants
// them in a block, next to and across its end, and holds unit() to
// skipping exactly those, and rmatSampler.next, which inlines unit(), to a
// sampler that calls it per bit.
func testResample(t *testing.T) {
	rounds := []uint64{unitEnd, 1<<63 - 1, 1<<64 - 1, 1<<64 - 512} // Float64 reads 1
	keeps := []uint64{unitEnd - 1, 1 << 63, 5}                     // it does not
	for _, y := range rounds {
		if unitFloat(y&mask63) != 1 {
			t.Fatalf("%#x: Float64 reads %v, want 1", y, unitFloat(y&mask63))
		}
	}
	for _, y := range keeps {
		if unitFloat(y&mask63) == 1 {
			t.Fatalf("%#x: Float64 reads 1", y)
		}
	}
	s := newRMATSampler(DefaultRMAT, 16)
	perBit := func(rng *draws) (src, dst int) {
		for bit := 0; bit < s.scale; bit++ {
			y := rng.unit()
			q := b2i(y >= s.a) + b2i(y >= s.ab) + b2i(y >= s.abc)
			dst |= (q & 1) << bit
			src |= (q >> 1) << bit
		}
		return src, dst
	}
	var base draws
	base.seed(3)
	for _, pos := range []int{0, 7, drawLag - 16, drawLag - 3, drawLag - 1, drawLag} {
		for _, at := range []int{0, 1, 2, 15, 16} {
			for i, bad := range rounds {
				got := base
				got.pos = pos
				// The planted draws: bad at offset at, then, for the
				// later rows, one more right behind it.
				for k := 0; k <= i/2; k++ {
					if j := pos + at + k; j < drawLag {
						got.vec[j] = bad
					}
				}
				want := got
				for k := 0; k < 3; k++ {
					gs, gd := s.next(&got)
					ws, wd := perBit(&want)
					if gs != ws || gd != wd || got != want {
						t.Fatalf("pos %d, %#x at +%d, edge %d: next (%d,%d) at %d, per-bit unit (%d,%d) at %d",
							pos, bad, at, k, gs, gd, got.pos, ws, wd, want.pos)
					}
				}
				u := base
				u.pos = pos
				if pos+at < drawLag {
					u.vec[pos+at] = bad
					for k := 0; k < at; k++ {
						u.unit()
					}
					next := u
					next.pos++
					if g, w := u.unit(), next.unit(); g != w {
						t.Fatalf("pos %d, %#x at +%d: unit %#x, want the draw after it, %#x", pos, bad, at, g, w)
					}
				}
			}
		}
	}
}

// testUniformN plants 31-bit draws at the edges of the direct remainder's
// range, v = 0, 1, n−1, n, n+1 and the rejection bound, each behind the
// bound plus one where that is a 31-bit draw, which must be drawn again:
// uniform must read v % n and take the draws Int31n takes.
func testUniformN(t *testing.T) {
	for _, n := range uniformNs {
		u := newUniformN(n)
		if direct := n > 1 && n <= math.MaxInt32; direct != (u.recip != 0) {
			t.Fatalf("n %d: direct remainder %v, want %v", n, u.recip != 0, direct)
		}
		if u.recip == 0 {
			continue
		}
		bound := uint32(1<<31 - 1 - 1<<31%uint32(n))
		if u.max != bound {
			t.Fatalf("n %d: rejection bound %d, Int31n's %d", n, u.max, bound)
		}
		for _, v := range []uint32{0, 1, uint32(n) - 1, uint32(n), uint32(n) + 1, bound - 1, bound} {
			if v > bound { // n and n+1 at n = 2³¹−1
				continue
			}
			var d draws
			k := 0
			if bound < 1<<31-1 { // a power of two rejects no draw
				d.vec[k] = uint64(bound+1) << 32
				k++
			}
			d.vec[k] = uint64(v)<<32 | 1<<63 | 0xffffffff
			if got, want := d.uniform(&u), int(v%uint32(n)); got != want || d.pos != k+1 {
				t.Errorf("n %d, v %d: uniform %d after %d draws, want %d after %d", n, v, got, d.pos, want, k+1)
			}
		}
	}
}

// unitFloat is rand.Float64's value for the 63-bit draw y.
func unitFloat(y uint64) float64 { return float64(int64(y)) / (1 << 63) }

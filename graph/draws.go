package graph

import (
	"math"
	"math/bits"
	"math/rand"
)

// draws is the one source of randomness of the generators and of
// PartitionRandom: math/rand's value stream for a seed, drawn inline.
// math/rand's source is an additive lagged-Fibonacci generator: its n-th
// output is x[n] = x[n−607] + x[n−273] (mod 2⁶⁴). draws takes the first 607
// outputs of rand.New(rand.NewSource(seed)), so math/rand still does the
// seeding, and then continues the recurrence itself, a block of 607 at a
// time. Its methods copy rand.Rand's, so every graph is byte-identical to
// one drawn through rand.Rand, without the interface call per draw
// (TestDrawsMatchMathRand holds them to it).
type draws struct {
	vec [drawLag]uint64 // x[k·607 .. k·607+606], the current block
	pos int             // index in vec of the next output
}

const (
	drawLag = 607 // the recurrence's long lag
	drawTap = 273 // and its short one

	mask63 = 1<<63 - 1

	// unitEnd is threshold(1): the least 63-bit draw that rand.Float64's
	// float64(y)/2⁶³ rounds to 1. Float64 resamples such a draw.
	unitEnd = 1<<63 - 512
)

// seed restarts the stream at the first output for the given seed.
func (d *draws) seed(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range d.vec {
		d.vec[i] = rng.Uint64()
	}
	d.pos = 0
}

// refill replaces the block with the next 607 outputs. Entry j of the new
// block adds the old entry j, drawn 607 outputs earlier, to the output 273
// before it: for j < 273 that is still an old entry, j+334, and for
// j ≥ 273 one this pass already replaced, j−273.
func (d *draws) refill() {
	v := &d.vec
	for j := 0; j < drawTap; j++ {
		v[j] += v[j+drawLag-drawTap]
	}
	for j := drawTap; j < drawLag; j++ {
		v[j] += v[j-drawTap]
	}
	d.pos = 0
}

// uint64 is rand.Rand.Uint64, and uint64() & mask63 is rand.Rand.Int63.
// The methods below mask it in place rather than call an int63 method,
// which would not be inlined: its call per draw would cost more than the
// draw itself.
func (d *draws) uint64() uint64 {
	if d.pos == drawLag {
		d.refill()
	}
	x := d.vec[d.pos]
	d.pos++
	return x
}

// unit returns the 63-bit draw behind one rand.Float64, which is
// float64(unit())/2⁶³. Compare it with a threshold instead of comparing
// the float: f ≥ t exactly when unit() ≥ threshold(t).
func (d *draws) unit() uint64 {
	for {
		if y := d.uint64() & mask63; y < unitEnd {
			return y
		}
	}
}

// intn is rand.Rand.Intn: Int31n's rejection below 2³¹, Int63n's from there.
func (d *draws) intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= math.MaxInt32 {
		return int(d.int31n(int32(n)))
	}
	return int(d.int63n(int64(n)))
}

// int31n is rand.Rand.Int31n for n > 0. Its draw, rand.Rand.Int31, is the
// top 31 bits of Int63.
func (d *draws) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32((d.uint64()&mask63)>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32((d.uint64() & mask63) >> 32)
	for v > max {
		v = int32((d.uint64() & mask63) >> 32)
	}
	return v % n
}

// uniformN is intn for one n drawn many times. Int31n, for an n below
// 2³¹ that is not a power of two, divides twice per draw: once for its
// rejection bound and once for the remainder. uniformN computes the bound
// once, and the remainder with Lemire's direct computation: for a 31-bit
// v, v % n = hi64((recip·v mod 2⁶⁴)·n) with recip = ⌊(2⁶⁴−1)/n⌋+1,
// exact for every 32-bit v and n (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019). A power of two takes the same
// path: its bound, 2³¹−1, rejects no draw, and its remainder is Int31n's
// mask. n = 1, whose recip overflows, and n ≥ 2³¹ keep intn's path.
type uniformN struct {
	n     int
	max   uint32 // Int31n's rejection bound: it draws again above it
	recip uint64 // 0 where intn's path is kept
}

func newUniformN(n int) uniformN {
	u := uniformN{n: n}
	if n > 1 && n <= math.MaxInt32 {
		u.max = 1<<31 - 1 - 1<<31%uint32(n)
		u.recip = math.MaxUint64/uint64(n) + 1
	}
	return u
}

// uniform is intn(u.n): the same value from the same draws.
func (d *draws) uniform(u *uniformN) int {
	if u.recip == 0 {
		return d.intn(u.n)
	}
	v := uint32((d.uint64() & mask63) >> 32)
	for v > u.max {
		v = uint32((d.uint64() & mask63) >> 32)
	}
	hi, _ := bits.Mul64(u.recip*uint64(v), uint64(u.n))
	return int(hi)
}

// int63n is rand.Rand.Int63n for n > 0.
func (d *draws) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return int64(d.uint64()&mask63) & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := int64(d.uint64() & mask63)
	for v > max {
		v = int64(d.uint64() & mask63)
	}
	return v % n
}

// perm is rand.Rand.Perm.
func (d *draws) perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := d.intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// threshold returns the least y in [0, 2⁶³] with float64(y)/2⁶³ ≥ t, the
// integer form of a comparison with rand.Float64: since the float grows
// with y, f ≥ t holds exactly when y ≥ threshold(t), and f < t when
// y < threshold(t). A t that no draw reaches, NaN included, gives 2⁶³.
func threshold(t float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Package stats is the hierarchical, typed statistics subsystem behind
// every engine's instrumentation — the role gem5's stats framework plays
// for the paper's evaluation.
//
// Stats live in a component tree of Groups (e.g. gpn0.pe3.vmu.spills) and
// come in five kinds:
//
//   - Counter: a monotonically increasing event count
//   - Scalar: a settable floating-point level
//   - Distribution: streaming mean/min/max/stddev over samples
//   - Histogram: bucketed sample counts (log2 or linear buckets)
//   - Formula: a derived value evaluated lazily at dump time
//
// Each stat is registered once, at component construction, with a name, a
// unit, and a one-line description. Registration captures a read closure;
// nothing else about the stat is interface-shaped. The zero-overhead rule:
// hot-path updates are plain field operations on the typed values
// (`c.spills.Inc()`, `h.Observe(n)` — an integer increment into a
// fixed-size array), never map lookups or interface calls, so the
// event-kernel fire path stays allocation-free (guarded by ReportAllocs
// benchmarks in this package and in internal/mem, internal/network, and
// internal/sim). All walking, boxing, and formatting cost is paid at dump
// time only.
//
// A Group renders to a Dump — a flat, ordered record list with full
// metadata — which serializes to JSON, aligned text, or CSV
// (novasim -stats-out), answers path lookups (Dump.Value, which
// harness.Report.Metric uses), and diffs against another dump (cmd/statdiff, the golden
// regression test). Records carry their kind/unit/description, so the
// generated STATS.md reference is derived from live registrations rather
// than hand-maintained.
package stats

//go:generate go run nova/internal/statsgen -o ../../STATS.md

import "math/bits"

// Unit annotates what a stat's value measures. Free-form strings are
// allowed; the constants below cover the repository's instrumentation.
type Unit string

// Standard units.
const (
	Cycles  Unit = "cycles"
	Seconds Unit = "seconds"
	Bytes   Unit = "bytes"
	Count   Unit = "count"
	Ratio   Unit = "ratio"
	Entries Unit = "entries"
)

// Kind identifies a stat's behavioural type.
type Kind string

// Stat kinds.
const (
	KindCounter      Kind = "counter"
	KindScalar       Kind = "scalar"
	KindDistribution Kind = "distribution"
	KindHistogram    Kind = "histogram"
	KindFormula      Kind = "formula"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; updates are plain integer increments.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// Scalar is a settable floating-point level (a gauge). The zero value is
// ready to use.
type Scalar float64

// Set replaces the value.
func (s *Scalar) Set(v float64) { *s = Scalar(v) }

// Add accumulates into the value.
func (s *Scalar) Add(v float64) { *s += Scalar(v) }

// Value returns the current value.
func (s *Scalar) Value() float64 { return float64(*s) }

// Distribution accumulates streaming summary statistics (count, mean,
// min, max, standard deviation) without retaining samples. The zero value
// is ready to use.
type Distribution struct {
	n              uint64
	sum, sumSq     float64
	minVal, maxVal float64
}

// Sample records one observation.
func (d *Distribution) Sample(v float64) {
	if d.n == 0 || v < d.minVal {
		d.minVal = v
	}
	if d.n == 0 || v > d.maxVal {
		d.maxVal = v
	}
	d.n++
	d.sum += v
	d.sumSq += v * v
}

// Merge folds another distribution into d, as if every sample recorded
// on o had been recorded on d. Used when aggregating per-component
// distributions (e.g. per-PE recovery hits) into a machine-wide one.
func (d *Distribution) Merge(o Distribution) {
	if o.n == 0 {
		return
	}
	if d.n == 0 || o.minVal < d.minVal {
		d.minVal = o.minVal
	}
	if d.n == 0 || o.maxVal > d.maxVal {
		d.maxVal = o.maxVal
	}
	d.n += o.n
	d.sum += o.sum
	d.sumSq += o.sumSq
}

// N returns the sample count.
func (d *Distribution) N() uint64 { return d.n }

// Mean returns the sample mean (0 with no samples).
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest sample (0 with no samples).
func (d *Distribution) Min() float64 { return d.minVal }

// Max returns the largest sample (0 with no samples).
func (d *Distribution) Max() float64 { return d.maxVal }

// Stddev returns the population standard deviation (0 with < 2 samples).
func (d *Distribution) Stddev() float64 {
	if d.n < 2 {
		return 0
	}
	mean := d.sum / float64(d.n)
	variance := d.sumSq/float64(d.n) - mean*mean
	if variance < 0 { // floating-point cancellation
		variance = 0
	}
	return sqrt(variance)
}

// sqrt is Newton's method on float64 — avoids importing math into the one
// file every engine's hot structs embed (keeps the dependency surface of
// the typed values at math/bits alone).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// histBuckets bounds every histogram at a fixed bucket count so Histogram
// values embed directly in hot structs with no constructor and no heap
// allocation. Log2 histograms cover the full uint64 range (the last bucket
// absorbs values ≥ 2^46); linear histograms clamp overflow into the last
// bucket.
const histBuckets = 48

// Histogram counts samples in fixed buckets. With Width == 0 (the zero
// value) buckets are logarithmic: bucket b counts values v with
// bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b), and bucket 0 counts
// zeros. With Width > 0 buckets are linear: bucket b counts values in
// [b·Width, (b+1)·Width). Either way Observe is an integer increment into
// a fixed-size array — safe for allocation-free hot paths.
type Histogram struct {
	// Width selects linear bucketing when positive; set it before the
	// first Observe and never change it afterwards.
	Width   uint64
	n       uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	b := 0
	if h.Width > 0 {
		b = int(v / h.Width)
	} else {
		b = bits.Len64(v)
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b]++
	h.n++
	h.sum += v
}

// Merge folds another histogram into h, as if every sample observed on o
// had been observed on h. Both histograms must use the same bucketing
// (equal Width). Used when aggregating per-shard histograms into a
// machine-wide one at dump time.
func (h *Histogram) Merge(o Histogram) {
	if o.n == 0 {
		return
	}
	h.n += o.n
	h.sum += o.sum
	for b := range o.buckets {
		h.buckets[b] += o.buckets[b]
	}
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Bucket returns bucket b's count (0 when out of range).
func (h *Histogram) Bucket(b int) uint64 {
	if b < 0 || b >= histBuckets {
		return 0
	}
	return h.buckets[b]
}

// NumBuckets returns the fixed bucket count.
func (h *Histogram) NumBuckets() int { return histBuckets }

// Quantile returns an upper bound on the q-quantile of the observed
// samples (q in [0,1]): the inclusive upper edge of the first bucket at
// which the cumulative count reaches q·N. Resolution is the bucket width
// — exact ranks are not recoverable from a fixed-bucket histogram — which
// is the right trade for serving-latency reporting: percentiles rounded
// up to a bucket edge, computed in O(buckets) with no retained samples.
// The overflow bucket reports the largest representable bound, ^uint64(0).
// With no samples Quantile returns 0.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b]
		if cum >= rank {
			hi, overflow := h.bucketHi(b)
			if overflow {
				return ^uint64(0)
			}
			return hi
		}
	}
	return ^uint64(0)
}

// bucketHi returns the inclusive upper bound of bucket b, and whether the
// bucket is the overflow bucket (unbounded above).
func (h *Histogram) bucketHi(b int) (uint64, bool) {
	if b == histBuckets-1 {
		return 0, true
	}
	if h.Width > 0 {
		return uint64(b+1)*h.Width - 1, false
	}
	if b == 0 {
		return 0, false
	}
	return 1<<uint(b) - 1, false
}

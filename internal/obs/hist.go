// Package obs is the serve tier's low-overhead latency-observability layer:
// lock-cheap log-bucketed histograms, counters and gauges behind one named
// registry, per-event stage traces with a slow-event log, and Prometheus-
// style text exposition. The paper's contract is bounded interactive latency
// (~100 ms perceptual budget for brushing); this package is how the system
// measures that contract in production instead of only in offline benchmark
// runs — every stage of the event path (recognize, delta propagation per
// view and per path, sort maintenance, render, WAL append/fsync) records
// into it, and the serve tier exposes the snapshots over the wire and over
// HTTP.
//
// Everything here is safe for concurrent use. The hot path (Histogram.
// Observe, Counter.Add) is a handful of atomic adds — no locks, no
// allocation — so recording a stage costs nanoseconds against stage costs
// of microseconds to milliseconds.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 latency buckets. Bucket i counts
// durations d with bits.Len64(ns) == i, i.e. d in [2^(i-1), 2^i) ns; bucket
// 0 is d == 0. 48 buckets reach ~3.2 days, far beyond any event latency.
const histBuckets = 48

// Histogram is a lock-free log-bucketed latency histogram: one atomic
// counter per power-of-two nanosecond bucket plus count/sum/max. Recording
// is a few atomic adds; quantiles are estimated from a Snapshot by linear
// interpolation inside the covering bucket, so any estimate is within a
// factor of 2 of the true value (the bucket bound) and in practice much
// closer.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// bucketIdx maps a duration to its log2 bucket.
func bucketIdx(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper is the exclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIdx(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Snapshot copies the histogram's counters into an immutable value. Taken
// against concurrent Observe calls the buckets may be mid-update relative to
// count/sum (each field is individually atomic); quantile estimates use the
// bucket totals, so the skew is at most the in-flight observations.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable and
// queryable without synchronization.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64 // nanoseconds
	Max     int64 // nanoseconds
}

// Merge returns the element-wise sum of two snapshots (max takes the larger)
// — the cross-session aggregation the serve tier uses to report server-wide
// latency from per-session histograms.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by rank walk over the log
// buckets with linear interpolation inside the covering bucket. Zero when
// the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based, ceil like a sorted slice).
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			if hi > s.Max && s.Max >= lo {
				hi = s.Max // the top occupied bucket cannot exceed the max
			}
			// Interpolate the rank's position inside the bucket.
			frac := float64(rank-cum) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	return time.Duration(s.Max)
}

// P50 is the median estimate.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P95 is the 95th-percentile estimate.
func (s HistSnapshot) P95() time.Duration { return s.Quantile(0.95) }

// P99 is the 99th-percentile estimate.
func (s HistSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// MaxDur is the largest observed duration.
func (s HistSnapshot) MaxDur() time.Duration { return time.Duration(s.Max) }

// Mean is the average observed duration (zero when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

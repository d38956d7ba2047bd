package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log₂ buckets. Bucket i counts values v
// with bucketOf(v) == i, i.e. v < 2^i nanoseconds and v >= 2^(i-1)
// (bucket 0 holds v <= 0 and v == 1 lands in bucket 1). 40 buckets
// cover up to ~18 minutes; larger values clamp into the last bucket.
const histBuckets = 40

// bucketOf maps a nanosecond value to its log₂ bucket index: the
// number of bits needed to represent v, clamped to the bucket range.
// Boundaries: v in (2^(i-1), 2^i] would be the textbook form; with
// bits.Len64 we get v in [2^(i-1), 2^i), which keeps powers of two in
// the upper bucket and is just as good for a latency profile.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketUpperBound returns the inclusive upper bound of bucket i in
// nanoseconds (used for Prometheus "le" labels); the last bucket is
// unbounded (+Inf).
func BucketUpperBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	// bucket i holds values < 2^i, so the inclusive bound is 2^i - 1.
	return float64(uint64(1)<<uint(i) - 1)
}

// histShard is one slot's histogram: log₂ buckets plus count and sum.
// Owner shards use load+store writes; the external shard uses atomic
// adds.
type histShard struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func (h *histShard) observe(ns int64, owned bool) {
	b := &h.buckets[bucketOf(ns)]
	if owned {
		b.Store(b.Load() + 1)
		h.count.Store(h.count.Load() + 1)
		h.sum.Store(h.sum.Load() + ns)
	} else {
		b.Add(1)
		h.count.Add(1)
		h.sum.Add(ns)
	}
}

func (h *histShard) snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time merged histogram. Merging snapshots
// is associative and commutative (element-wise addition), so shard
// merge order does not matter.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
}

// MergeFrom adds o into s element-wise.
func (s *HistSnapshot) MergeFrom(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// writeProm writes the snapshot as a Prometheus histogram: # HELP and
// # TYPE metadata, then cumulative _bucket{le=...} series, _sum and
// _count.
func (s HistSnapshot) writeProm(w io.Writer, name, help string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += s.Buckets[i]
		if i == histBuckets-1 {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
				return err
			}
		} else if s.Buckets[i] != 0 || i < 24 {
			// Always emit the low buckets (cheap, stable scrape shape);
			// skip empty high buckets to keep the page small.
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%.0f\"} %d\n", name, BucketUpperBound(i), cum); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count); err != nil {
		return err
	}
	return nil
}

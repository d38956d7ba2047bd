package obs

import (
	"math"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1023, 10}, {1024, 11},
		{1 << 20, 21},
		{int64(1) << 62, histBuckets - 1}, // clamped into the last bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every value must land in the bucket whose UpperBound admits it.
	for _, ns := range []int64{1, 2, 5, 100, 4095, 4096, 1 << 30} {
		b := bucketOf(ns)
		if ub := BucketUpperBound(b); float64(ns) > ub {
			t.Errorf("value %d exceeds its bucket %d upper bound %g", ns, b, ub)
		}
		if b > 1 {
			if lb := BucketUpperBound(b - 1); float64(ns) <= lb {
				t.Errorf("value %d should not fit the previous bucket %d (ub %g)", ns, b-1, lb)
			}
		}
	}
	if !math.IsInf(BucketUpperBound(histBuckets-1), 1) {
		t.Error("last bucket must be unbounded")
	}
}

func TestHistogramMergeAssociativity(t *testing.T) {
	mk := func(vals ...int64) HistSnapshot {
		var sh histShard
		for _, v := range vals {
			sh.observe(v, true)
		}
		return sh.snapshot()
	}
	a := mk(1, 5, 1000)
	b := mk(2, 2, 1<<20)
	c := mk(0, 7)

	// (a+b)+c == a+(b+c), and commutes.
	ab := a
	ab.MergeFrom(b)
	abc1 := ab
	abc1.MergeFrom(c)

	bc := b
	bc.MergeFrom(c)
	abc2 := a
	abc2.MergeFrom(bc)

	cba := c
	cba.MergeFrom(b)
	cba.MergeFrom(a)

	if abc1 != abc2 || abc1 != cba {
		t.Fatalf("merge is not associative/commutative:\n%v\n%v\n%v", abc1, abc2, cba)
	}
	if abc1.Count != 8 {
		t.Fatalf("merged count = %d, want 8", abc1.Count)
	}
	if want := int64(1 + 5 + 1000 + 2 + 2 + (1 << 20) + 0 + 7); abc1.Sum != want {
		t.Fatalf("merged sum = %d, want %d", abc1.Sum, want)
	}
}

func TestHistogramObserveExternal(t *testing.T) {
	var sh histShard
	sh.observe(100, false) // external (atomic add) path
	sh.observe(100, true)
	s := sh.snapshot()
	if s.Count != 2 || s.Sum != 200 || s.Buckets[bucketOf(100)] != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
}

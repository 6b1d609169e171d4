package main

import "math/bits"

// hist is a single-writer log-linear histogram of non-negative integer
// samples (nanoseconds, or WAL records of lag). Values below 256 get exact
// buckets; above, every power of two is split into 128 sub-buckets, so a
// quantile is quantized by under 0.8%. The repository's instrument.Hist
// splits an octave into 4 (12.5%), which is too coarse for a benchmark
// whose bounds are a few per cent: a p50 sitting on a bucket edge would
// jump by a whole bucket between runs.
type hist struct {
	n, sum uint64
	counts [histBuckets]uint64
}

const (
	histSubBits = 7
	histBuckets = (64-histSubBits)<<histSubBits + 1<<histSubBits
)

func histIndex(v uint64) int {
	if v < 2<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1 // v>>e lies in [128, 256)
	return e<<histSubBits + int(v>>e)
}

// histRange returns the smallest value bucket i holds and its width.
func histRange(i int) (lo, width uint64) {
	if i < 2<<histSubBits {
		return uint64(i), 1
	}
	e := i>>histSubBits - 1
	m := uint64(i - e<<histSubBits)
	return m << e, 1 << e
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
	h.sum += uint64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile, interpolated linearly inside the
// bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histRange(i)
			return float64(lo) + (rank-cum)/float64(c)*float64(w)
		}
		cum += float64(c)
	}
	lo, _ := histRange(histBuckets - 1)
	return float64(lo)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

package main

import (
	"fmt"
	"math/bits"
	"sort"
)

// subBits sets the histogram's resolution: 2^subBits buckets per
// power of two, so a reported percentile is within 1/128 (0.8%) of the
// sample it stands for.
const subBits = 7

// hist is a log-linear histogram of nanosecond times.  Values below
// 2^subBits ns have a bucket each; above, every power of two is split
// into 2^subBits equal buckets.  It has a fixed size, so recording a
// sample never allocates, however long the run.
type hist struct {
	counts [(32 - subBits + 1) << subBits]uint64
	n      int64
}

func bucketOf(v uint32) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len32(v) - 1 - subBits
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange is the lowest value of bucket b and the bucket's width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	shift := b>>subBits - 1
	top := b&(1<<subBits-1) + 1<<subBits
	return float64(uint64(top) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(clampNs(ns))]++
	h.n++
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile is the q-quantile (0 ≤ q ≤ 1) in ns, interpolated inside
// its bucket, with the sample count it rests on.  An empty histogram
// has quantile 0 and count 0.
func (h *hist) quantile(q float64) (ns float64, n int64) {
	if h == nil || h.n == 0 {
		return 0, 0
	}
	rank := q * float64(h.n-1) // 0-based rank of the wanted sample
	var below float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, w := bucketRange(b)
			return lo + w*(rank-below+0.5)/float64(c), h.n
		}
		below += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w, h.n
}

// tailOK reports whether the q-quantile of an n-sample has at least
// ten samples beyond it, the least a reported tail percentile needs.
func tailOK(q float64, n int64) bool {
	return float64(n)*(1-q) >= 10
}

// median is the middle of vs (mean of the middle two for an even
// count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a share or rate reported together with its base, so a
// reader can tell 0.5 of 2 from 0.5 of two million.
type ratio struct {
	num, den float64
	base     string // what den counts
}

// value is num/den, 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%.0f / %.0f %s)", r.value(), r.num, r.den, r.base)
}

func clampNs(ns int64) uint32 {
	return uint32(min(max(ns, 0), 1<<32-1))
}

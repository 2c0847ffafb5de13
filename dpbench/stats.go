package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, sorting xs in place. ok is false when fewer than
// minBeyond samples lie above that rank, so the tail is too thin to
// support the percentile.
func percentile(xs []int64, p float64) (v int64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(rank, 1)
	return xs[rank-1], n-rank >= minBeyond
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, without reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// sample is one packet's due-to-output latency, with the due time its
// whole burst shares.
type sample struct{ due, ns int64 }

// latency returns the given percentiles of the pooled per-packet
// latencies and the number of bursts they came from. The packets of a
// burst share a due time and mostly their fate, so they are not
// independent: a percentile is reported only when at least minBeyond
// distinct bursts lie above its rank. s is sorted in place.
func latency(s []sample, ps ...float64) (vals []float64, bursts int, err error) {
	bursts = distinctDues(s)
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.ns, b.ns) })
	for _, p := range ps {
		rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
		if rank > len(s) || distinctDues(s[rank:]) < minBeyond {
			return nil, bursts, fmt.Errorf("%d latency samples from %d bursts cannot support a p%v", len(s), bursts, p)
		}
		vals = append(vals, float64(s[rank-1].ns))
	}
	return vals, bursts, nil
}

// distinctDues counts the bursts among s.
func distinctDues(s []sample) int {
	seen := make(map[int64]struct{}, len(s)/8)
	for _, x := range s {
		seen[x.due] = struct{}{}
	}
	return len(seen)
}

package main

import (
	"math"
	"sort"
)

// dist summarises one metric's samples within a run.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartile returns the first (q=1) or third (q=3) quartile the way Python's
// statistics.quantiles(xs, n=4) does, so that a spread computed here is the
// spread the driver computes from the same values.
func quartile(xs []float64, q int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q)*float64(len(s)+1)/4 - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return s[0]
	case lo >= len(s)-1:
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	return dist{
		N:      len(xs),
		Median: median(xs),
		Q1:     quartile(xs, 1),
		Q3:     quartile(xs, 3),
		Min:    percentile(xs, 0),
		Max:    percentile(xs, 100),
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailLadder is the set of percentiles a latency tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// highestPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it: a tail read off fewer than ten
// samples is one slow job, not a percentile.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// rule Python's statistics.quantiles uses by default: the rank is
// p·(n+1), clamped to the sample, interpolated between neighbours.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	frac := h - float64(j)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return s[j-1] + (s[j]-s[j-1])*frac
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPct is the highest whole percentile with at least ten samples
// beyond it, or 0 when there are too few samples for one.
func tailPct(n int) int {
	if n < 11 {
		return 0
	}
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p > 99 {
		p = 99
	}
	return p
}

// summary is one timed quantity over its samples.
type summary struct {
	N        int
	Median   float64
	Q1, Q3   float64
	TailPct  int     // 0 = too few samples for a tail
	Tail     float64 // value at the tail percentile, on the slow side
	LowerBad bool    // true for rates: the slow tail is the low side
}

// summarize computes median, quartiles and the slow-side tail of xs.
// lowerBad marks rates, whose slow tail is the low percentile.
func summarize(xs []float64, lowerBad bool) summary {
	s := summary{N: len(xs), LowerBad: lowerBad}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	s.Q1 = quantile(xs, 0.25)
	s.Q3 = quantile(xs, 0.75)
	if s.TailPct = tailPct(len(xs)); s.TailPct > 0 {
		p := float64(s.TailPct) / 100
		if lowerBad {
			p = 1 - p
		}
		s.Tail = quantile(xs, p)
	}
	return s
}

func (s summary) String() string {
	if s.N == 0 {
		return "no samples"
	}
	tail := "tail n/a (<11 samples)"
	if s.TailPct > 0 {
		side := s.TailPct
		if s.LowerBad {
			side = 100 - s.TailPct
		}
		tail = fmt.Sprintf("p%d %s", side, fmtNum(s.Tail))
	}
	spread := 0.0
	if s.Median != 0 {
		spread = 100 * (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return fmt.Sprintf("median %s  q1 %s  q3 %s  (IQR %.1f%%)  %s  n=%d",
		fmtNum(s.Median), fmtNum(s.Q1), fmtNum(s.Q3), spread, tail, s.N)
}

func fmtNum(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// samples is a set of measurements in seconds (or any unit).
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { *s = append(*s, d.Seconds()) }
func (s *samples) since(t time.Time)      { s.addDur(time.Since(t)) }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// tail is the highest percentile that still has tailBeyond samples above
// it: the order statistic with exactly tailBeyond larger samples. It
// returns that value, its percentile and the sample count. With too few
// samples for any such percentile it falls back to the maximum and
// reports percentile 100.
func (s samples) tail() (value, percentile float64, n int) {
	c := s.sorted()
	n = len(c)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= tailBeyond {
		return c[n-1], 100, n
	}
	i := n - tailBeyond - 1
	return c[i], 100 * float64(i+1) / float64(n), n
}

func (s samples) mean() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return ratio(sum, float64(len(s)))
}

func (s samples) max() float64 {
	var m float64
	for _, v := range s {
		m = max(m, v)
	}
	return m
}

// tailInfo renders a tail for the details line.
func (s samples) tailInfo() map[string]any {
	v, p, n := s.tail()
	return map[string]any{"value": v, "percentile": p, "samples": n}
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is an extreme value, not a
// percentile.
const minTail = 10

// percentile returns the nearest-rank p-th quantile (0 < p <= 1) of xs and
// how many samples lie strictly beyond its rank. xs is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// minSamplesFor returns the smallest sample count whose p-th percentile has
// minTail samples beyond it.
func minSamplesFor(p float64) int {
	n := 1
	for {
		if _, beyond := percentile(make([]float64, n), p); beyond >= minTail {
			return n
		}
		n++
	}
}

// latencySummary is a reported latency percentile with its sample count.
type latencySummary struct {
	Name   string
	Value  float64
	N      int
	Beyond int
}

// summarize computes the p-th percentile of xs and reports whether it
// satisfies the tail rule.
func summarize(name string, xs []float64, p float64) (latencySummary, bool) {
	v, beyond := percentile(xs, p)
	return latencySummary{Name: name, Value: v, N: len(xs), Beyond: beyond}, beyond >= minTail
}

// String renders the line the benchmark prints for the percentile.
func (l latencySummary) String() string {
	return fmt.Sprintf("%s = %.4f ms (n=%d, %d beyond)", l.Name, l.Value, l.N, l.Beyond)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

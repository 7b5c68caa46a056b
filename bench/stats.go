package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tail returns the p-quantile of xs (nearest rank), lowered to the
// highest rank that still has ten samples beyond it: a p99 over 200
// samples is really the p95, and says so through its sample count.
// Below 21 samples no tail is supported and the median is returned.
func tail(xs []float64, p float64) float64 {
	n := len(xs)
	if n < 21 {
		return median(xs)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if max := n - 11; rank > max {
		rank = max
	}
	return sorted(xs)[rank]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// pick maps f over the items keep admits (all of them when keep is nil).
func pick[T any](items []T, f func(*T) float64, keep func(*T) bool) []float64 {
	var xs []float64
	for i := range items {
		if keep == nil || keep(&items[i]) {
			xs = append(xs, f(&items[i]))
		}
	}
	return xs
}

// ratio returns a/b, or 0 when the base is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread is the distance between the first and third quartile of xs as
// a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method): the
// steadiness measure the benchmark's bounds are checked against.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), median(xs))
}

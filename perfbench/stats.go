package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer outliers than this is noise.
const minBeyond = 10

// dist is a set of timing samples in one unit.
type dist struct {
	name    string
	unit    string
	samples []float64
	sorted  bool
}

func (d *dist) add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

func (d *dist) n() int { return len(d.samples) }

// q returns the p-quantile (0 < p ≤ 1) by the nearest-rank method, or 0
// when there are no samples.
func (d *dist) q(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	return d.samples[rank(len(d.samples), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return min(max(r, 1), n)
}

// beyond reports how many of n samples lie above the p-quantile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// standardTails are the percentiles a report may name, highest first.
var standardTails = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// highestTail returns the highest standard percentile that n samples
// support with at least minBeyond samples above it, or 0.5 when none does.
func highestTail(n int) float64 {
	for _, p := range standardTails {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0.5
}

// pctName renders a quantile as a percentile label: 0.99 → "p99".
func pctName(p float64) string {
	return "p" + fmt.Sprint(math.Round(p*1000)/10)
}

// describe renders the median, the named tail and the sample count, and
// flags a tail the sample does not support.
func (d *dist) describe(tail float64) string {
	s := fmt.Sprintf("%s: p50 %.3f %s, %s %.3f %s (n=%d", d.name, d.q(0.5), d.unit, pctName(tail), d.q(tail), d.unit, d.n())
	if b := beyond(d.n(), tail); b < minBeyond {
		s += fmt.Sprintf(", only %d beyond %s; the sample supports %s", b, pctName(tail), pctName(highestTail(d.n())))
	}
	return s + ")"
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	d := dist{samples: append([]float64(nil), xs...)}
	return d.q(0.5)
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minSamplesBeyond is the number of samples that must lie beyond a
// reported percentile: a percentile supported by fewer is one slow round,
// not a property of the workload.
const minSamplesBeyond = 10

// minSamples is the smallest sample that supports every percentile the
// benchmark reports (the 90th is the highest).
const minSamples = 10 * minSamplesBeyond

// supported refuses a q-quantile (0 < q < 1) of n samples with fewer than
// minSamplesBeyond samples above it or below it, so a caller can never
// print a tail the run did not observe.
func supported(n int, q float64) error {
	if q <= 0 || q >= 1 {
		return fmt.Errorf("percentile %v is outside (0, 1)", q)
	}
	rank := int(math.Ceil(float64(n) * q))
	if n-rank < minSamplesBeyond || rank-1 < minSamplesBeyond {
		return fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", q*100, n, minSamplesBeyond)
	}
	return nil
}

// nearestRank is the nearest-rank q-quantile of a non-empty sample.
func nearestRank(samples []float64, q float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(float64(len(sorted)) * q))
	return sorted[max(rank, 1)-1]
}

// median is the plain median for per-round layer numbers, where the
// sample is one value per round of a pass and no tail is claimed.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

// ratio is a/b, and 0 when the base is 0 (a layer the workload never
// reached has no share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runPasses calls pass until at least `seconds` have elapsed and the passes
// have produced `enough` samples, and always completes the pass it is in:
// every run measures whole passes over the pool, so two commits of a
// comparison measure the identical composition. pass returns the number of
// samples it added. It returns the passes run and the measured wall time.
func runPasses(seconds float64, enough int, pass func() int) (int, time.Duration) {
	start := time.Now()
	passes, samples := 0, 0
	for {
		samples += pass()
		passes++
		if time.Since(start).Seconds() >= seconds && samples >= enough {
			return passes, time.Since(start)
		}
	}
}

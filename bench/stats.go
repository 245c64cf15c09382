package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0, so layers a workload does not
// exercise report 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencyWindows is the most time windows a latency percentile is taken
// over (see windowed.percentile).
const latencyWindows = 5

// windowed holds a step's latency samples with the time each was taken (or
// due), so a percentile can be taken per time window and then the median
// across windows: a stall or a noisy neighbour that spoils one window does
// not move the result.
type windowed struct {
	start time.Time
	at    []time.Duration // since start
	ms    []float64
}

func (w *windowed) add(at time.Time, v float64) {
	w.at = append(w.at, at.Sub(w.start))
	w.ms = append(w.ms, v)
}

// percentile returns the median over equal time windows of each window's
// p-th percentile. It uses as many windows, up to latencyWindows, as leave
// every window about ten samples beyond the percentile; with fewer samples
// it is the percentile of all of them.
func (w *windowed) percentile(p float64) float64 {
	if len(w.ms) == 0 {
		return 0
	}
	k := min(latencyWindows, max(1, int(float64(len(w.ms))*(100-p)/100/10)))
	span := int64(slices.Max(w.at)) + 1
	per := make([][]float64, k)
	for i, at := range w.at {
		j := min(int(int64(at)*int64(k)/span), k-1)
		per[j] = append(per[j], w.ms[i])
	}
	var ps []float64
	for _, s := range per {
		if len(s) > 0 {
			ps = append(ps, percentile(s, p))
		}
	}
	return median(ps)
}

// count returns the number of samples.
func (w *windowed) count() int { return len(w.ms) }

package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, or
// 0 for no samples. xs is sorted in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or ifEmpty when den is 0.
func ratio(num, den, ifEmpty float64) float64 {
	if den == 0 {
		return ifEmpty
	}
	return num / den
}

// hitRatio is the share of requests served from a merge cache: 1 −
// builds/requests. With no requests nothing was rebuilt, so it is 1.
func hitRatio(builds, requests int64) float64 {
	return 1 - ratio(float64(builds), float64(requests), 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop sender's timetable: batch i is due at
// start + i·interval, whether or not earlier batches have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// lag is how late batch i was sent; a sender that keeps up has lag ≈ 0.
func (s schedule) lag(i int, sent time.Time) time.Duration { return sent.Sub(s.due(i)) }

// ackLatency times batch i from when it was due, so a stall also
// charges the wait it imposes on the batches queued behind it.
func (s schedule) ackLatency(i int, acked time.Time) time.Duration { return acked.Sub(s.due(i)) }

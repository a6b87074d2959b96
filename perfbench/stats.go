package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile for it to be reported at all.
const minTail = 10

// minSamples returns how many samples a percentile q (0 < q < 1) needs so
// that at least minTail samples rank above it.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-rank(n, q) >= minTail {
			return n
		}
	}
}

// rank is the 1-based nearest-rank position of percentile q among n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile q of xs and whether at
// least minTail samples lie beyond it. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(len(s), q)
	return s[r-1], len(s)-r >= minTail
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// rung is one step of the open-loop rate ladder: the offered rate, the p90
// latency of its verified jobs, and whether its backlog of outstanding jobs
// kept growing.
type rung struct {
	Rate    float64
	P90ms   float64
	Backlog bool
}

// effectiveMS is the latency a rung counts with against limitMS: a growing
// backlog means the rate is past capacity whatever its jobs' p90 so far,
// so it counts as twice the limit at least.
func (r rung) effectiveMS(limitMS float64) float64 {
	if r.Backlog {
		return max(r.P90ms, 2*limitMS)
	}
	return r.P90ms
}

// passes reports whether the rung meets the limit.
func (r rung) passes(limitMS float64) bool { return r.effectiveMS(limitMS) <= limitMS }

// sustainableRate returns the offered rate at which the p90 latency crosses
// limitMS. rungs must be in ascending rate order. Each rung's p90 is a
// noisy sample of a latency that only grows with the rate, so the rungs are
// first fitted with the closest non-decreasing sequence (pool adjacent
// violators); the crossing is interpolated between the fitted rungs on
// either side of the limit. It is an error when the lowest rung already
// misses the limit (the ladder starts too high) or no rung does (it stops
// too low).
func sustainableRate(rungs []rung, limitMS float64) (float64, error) {
	if len(rungs) == 0 {
		return 0, fmt.Errorf("empty rate ladder")
	}
	lat := make([]float64, len(rungs))
	for i, r := range rungs {
		if i > 0 && r.Rate <= rungs[i-1].Rate {
			return 0, fmt.Errorf("ladder rates not ascending at rung %d", i)
		}
		lat[i] = r.effectiveMS(limitMS)
	}
	fit := isotonic(lat)
	if fit[0] > limitMS {
		return 0, fmt.Errorf("lowest rung %.3g/s already misses the %.0f ms limit (fitted p90 %.1f ms)",
			rungs[0].Rate, limitMS, fit[0])
	}
	for i := 1; i < len(rungs); i++ {
		if fit[i] <= limitMS {
			continue
		}
		frac := (limitMS - fit[i-1]) / (fit[i] - fit[i-1])
		return rungs[i-1].Rate + frac*(rungs[i].Rate-rungs[i-1].Rate), nil
	}
	return 0, fmt.Errorf("top rung %.3g/s still meets the %.0f ms limit; extend the ladder",
		rungs[len(rungs)-1].Rate, limitMS)
}

// isotonic returns the non-decreasing sequence closest to xs in least
// squares (pool adjacent violators, equal weights).
func isotonic(xs []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, x := range xs {
		blocks = append(blocks, block{x, 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(xs))
	for _, b := range blocks {
		for range b.n {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

// backlogGrowing reports whether the number of outstanding jobs, sampled
// at each submission of a rung (in submission order), trends upward: the
// mean of the last quarter exceeds the mean of the first quarter by more
// than slack jobs.
func backlogGrowing(outstanding []int, slack float64) bool {
	q := len(outstanding) / 4
	if q == 0 {
		return false
	}
	var first, last float64
	for i := 0; i < q; i++ {
		first += float64(outstanding[i])
		last += float64(outstanding[len(outstanding)-1-i])
	}
	return (last-first)/float64(q) > slack
}

// lateness accounts an open-loop generator's schedule slip: each send is
// due at a fixed offset from the start, and any delay past that is late.
type lateness struct {
	late []float64 // ms per send, 0 when on time
}

// record notes one send that was due at due and went out at sent.
func (l *lateness) record(due, sent time.Time) {
	l.late = append(l.late, max(ms(sent.Sub(due)), 0))
}

// p90 returns the 90th-percentile slip in milliseconds.
func (l *lateness) p90() float64 {
	v, _ := percentile(l.late, 0.9)
	return v
}

package main

import (
	"math"
	"math/rand"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// sample supports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// reservoirSize bounds the latencies one client keeps per op type and
// round. Past it a uniform sample is kept, so the benchmark's own
// memory does not grow with the program's throughput, which
// heap_peak_mb would otherwise see.
const reservoirSize = 1 << 15

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// opLatencies is one client's latencies of one op type in one round, in
// microseconds: every latency up to reservoirSize, a uniform sample of
// them past it. A failed op is recorded as +Inf: it misses any latency
// limit.
type opLatencies struct {
	us     []float64
	seen   int
	failed int
	rng    *rand.Rand
}

func (o *opLatencies) add(us float64, err error) {
	if err != nil {
		o.failed++
		us = math.Inf(1)
	}
	o.seen++
	if len(o.us) < reservoirSize {
		o.us = append(o.us, us)
		return
	}
	if o.rng == nil {
		o.rng = rand.New(rand.NewSource(int64(o.seen)))
	}
	if j := o.rng.Intn(o.seen); j < reservoirSize {
		o.us[j] = us
	}
}

// latencies pools opLatencies into one ascending, weighted sample: each
// kept latency stands for seen/kept latencies of the part it came from.
type latencies struct {
	s      []weighted
	seen   int
	failed int
}

type weighted struct{ us, w float64 }

func pool(parts ...*opLatencies) latencies {
	var l latencies
	for _, p := range parts {
		if len(p.us) == 0 {
			continue
		}
		w := float64(p.seen) / float64(len(p.us))
		for _, v := range p.us {
			l.s = append(l.s, weighted{v, w})
		}
		l.seen += p.seen
		l.failed += p.failed
	}
	sort.Slice(l.s, func(i, j int) bool { return l.s[i].us < l.s[j].us })
	return l
}

// quantile returns the nearest-rank p-quantile of the weighted sample,
// and whether at least minBeyond kept samples lie above it.
func (l latencies) quantile(p float64) (float64, bool) {
	if len(l.s) == 0 {
		return 0, false
	}
	var total float64
	for _, x := range l.s {
		total += x.w
	}
	// The tolerance absorbs rounding in p*total, so an unweighted sample
	// of n gets exactly rank ceil(p*n).
	target := p*total - 1e-9*total
	var cum float64
	for i, x := range l.s {
		if cum += x.w; cum >= target {
			return x.us, len(l.s)-1-i >= minBeyond
		}
	}
	return l.s[len(l.s)-1].us, false
}

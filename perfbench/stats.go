package main

// The benchmark's own arithmetic: percentiles with their sample support,
// self time from nested spans, the max-rate step rule and the TLB ratio.
// Kept free of I/O so stats_test.go can pin every rule.

import (
	"fmt"
	"math"
	"sort"

	"webwave/internal/core"
	"webwave/internal/fold"
	"webwave/internal/tree"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 needs at least 1000 samples, a p99.9 at least 10000.
const minBeyond = 10

// dist is a sorted sample of one timing, in nanoseconds. Failed requests
// are +Inf: they miss any latency limit.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// supports reports whether q has at least minBeyond samples beyond it.
func (d dist) supports(q float64) bool {
	return float64(len(d))*(1-q) >= minBeyond-1e-9
}

// quantile is the nearest-rank q-quantile (NaN on an empty sample).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// highest returns the highest of the standard percentiles the sample
// supports (0 when not even the median has ten samples beyond it).
func (d dist) highest() float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if d.supports(q) {
			best = q
		}
	}
	return best
}

// describe renders "p50 X, p99 Y (n=N)" in the given unit, naming the
// highest supported percentile so a reader sees what the sample can carry.
func (d dist) describe(unit float64, suffix string) string {
	if len(d) == 0 {
		return "no samples"
	}
	h := d.highest()
	if h == 0 {
		return fmt.Sprintf("p50 %.3f%s (n=%d, too few samples for any percentile)", d.quantile(0.5)/unit, suffix, len(d))
	}
	return fmt.Sprintf("p50 %.3f%s, p%s %.3f%s (n=%d)", d.quantile(0.5)/unit, suffix,
		trimPct(h), d.quantile(h)/unit, suffix, len(d))
}

func trimPct(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*100*100)/100)
}

// medianOfQuantiles splits xs (samples in time order) into the most
// contiguous equal parts, at most maxParts, that each support q, and
// returns the median of the parts' q-quantiles. One stall then moves one
// part's tail instead of the whole window's. With too few samples for two
// parts it is the plain quantile.
func medianOfQuantiles(xs []float64, q float64, maxParts int) float64 {
	parts := min(maxParts, int(float64(len(xs))*(1-q)/minBeyond+1e-9))
	if parts < 2 {
		return newDist(xs).quantile(q)
	}
	qs := make([]float64, parts)
	for i := range qs {
		qs[i] = newDist(xs[i*len(xs)/parts : (i+1)*len(xs)/parts]).quantile(q)
	}
	return median(qs)
}

// median is the middle value (the mean of the middle two for an even
// count); +Inf values sort last.
func median(xs []float64) float64 {
	s := newDist(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// span is one timed interval at a layer boundary. Spans of one request
// share id; parent names the enclosing layer ("" for the outermost).
type span struct {
	ID     uint64 `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (the spans of the same id whose Parent is
// its Layer). Children are clipped to the parent's interval and overlaps
// between children are counted once.
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	type key struct {
		id    uint64
		layer string
	}
	kids := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			kids[key{s.ID, s.Parent}] = append(kids[key{s.ID, s.Parent}], i)
		}
	}
	for i, s := range spans {
		var ivs [][2]int64
		for _, k := range kids[key{s.ID, s.Layer}] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, iv := range ivs {
			if iv[0] > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = iv[0], iv[1]
			} else if iv[1] > curB {
				curB = iv[1]
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// step is one fixed offered rate of the max-rate sweep.
type step struct {
	Rate       float64 `json:"rate_rps"`
	Sent       int     `json:"sent"`
	Succeeded  int     `json:"succeeded"`
	Failed     int     `json:"failed"`
	Unsent     int     `json:"unsent"` // due in the window but never sent: the final backlog
	P99ms      float64 `json:"p99_ms"`
	BacklogMax int     `json:"backlog_max"`
	Pass       bool    `json:"pass"`
	Retried    bool    `json:"retried"` // failed once and was run again
}

// maxErrorShare is the failed share above which a step fails.
const maxErrorShare = 0.001

// judge decides whether a step sustained its rate: p99 under the limit,
// error share under maxErrorShare, and a backlog that did not grow. The
// backlog grew when the requests still unsent at the window's end exceed
// what the offered rate delivers in one latency limit — at that point the
// last of them waits longer than the limit no matter how fast the service
// becomes.
func judge(s step, limitMs float64) bool {
	if s.Sent == 0 {
		return false
	}
	if float64(s.Failed)/float64(s.Sent+s.Unsent) > maxErrorShare {
		return false
	}
	if !(s.P99ms < limitMs) {
		return false
	}
	return float64(s.Unsent) <= backlogSlack(s.Rate, limitMs)
}

// backlogSlack is the final backlog a step may leave: one latency limit's
// worth of requests at its rate.
func backlogSlack(rate, limitMs float64) float64 {
	return math.Max(2, rate*limitMs/1000)
}

// maxRate is the highest passing rate below the lowest failing one: a pass
// above a failure (a noisy step) does not count. 0 when nothing passed.
func maxRate(steps []step) float64 {
	lowestFail := math.Inf(1)
	for _, s := range steps {
		if !s.Pass && s.Rate < lowestFail {
			lowestFail = s.Rate
		}
	}
	best := 0.0
	for _, s := range steps {
		if s.Pass && s.Rate < lowestFail && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}

// gridPerDoubling is the sweep grid's resolution: ref·2^(k/16), about 4.4%
// apart.
const gridPerDoubling = 16

func rateGrid(ref float64, k int) float64 {
	return ref * math.Pow(2, float64(k)/gridPerDoubling)
}

// sweepNext picks the next grid index to try from the results so far
// (index -> passed), within [minIdx, maxIdx]: start at the reference rate
// (index 0), double the rate after each pass and halve it after each
// failure until both a pass and a failure are known, then bisect between
// the highest pass and the lowest failure. Reports false once the knee is
// resolved to adjacent grid points or a probe runs off the grid.
func sweepNext(tried map[int]bool, minIdx, maxIdx int) (int, bool) {
	lo, hi := minIdx-1, maxIdx+1
	for k, ok := range tried {
		if !ok && k < hi {
			hi = k
		}
	}
	for k, ok := range tried {
		if ok && k < hi && k > lo {
			lo = k
		}
	}
	next := (lo + hi) / 2
	switch {
	case len(tried) == 0:
		next = 0
	case hi > maxIdx:
		next = min(lo+gridPerDoubling, maxIdx)
	case lo < minIdx:
		next = max(hi-gridPerDoubling, minIdx)
	case hi-lo <= 1:
		return 0, false
	}
	if tried[next] || next == hi {
		return 0, false
	}
	return next, true
}

// tlbRatio is the paper's optimality gap: the busiest node's measured
// served rate over the WebFold tree load-balance optimum's max load, both
// computed on the demand the driver itself offered (demand[v] = req/s
// entering at node v) and the serves it observed (served[v] = req/s
// answered by node v).
func tlbRatio(t *tree.Tree, demand, served core.Vector) (ratio, tlbMax float64, err error) {
	res, err := fold.Compute(t, demand)
	if err != nil {
		return 0, 0, err
	}
	tlbMax = res.MaxLoad()
	if tlbMax <= 0 {
		return 0, 0, fmt.Errorf("tlb: no demand")
	}
	m, _ := core.MaxVec(served)
	return m / tlbMax, tlbMax, nil
}

package main

import (
	"math"
	"testing"

	"webwave/internal/core"
	"webwave/internal/tree"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	if d := mk(999); d.supports(0.99) {
		t.Errorf("999 samples support p99; want at least 1000")
	}
	if d := mk(1000); !d.supports(0.99) || d.supports(0.999) {
		t.Errorf("1000 samples: want p99 supported and p99.9 not")
	}
	if got := mk(1000).highest(); got != 0.99 {
		t.Errorf("highest(1000 samples) = %v, want 0.99", got)
	}
	if got := mk(15).highest(); got != 0 {
		t.Errorf("highest(15 samples) = %v, want 0: the median needs 20", got)
	}
	if got := mk(24000).highest(); got != 0.999 {
		t.Errorf("highest(24000 samples) = %v, want 0.999", got)
	}
	// Nearest rank: the q-quantile of 1..100 is 100q.
	d := mk(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.001, 1}, {1, 100}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failure is +Inf and so lands in the tail, missing any limit.
	f := newDist([]float64{1, 2, math.Inf(1)})
	if !math.IsInf(f.quantile(1), 1) {
		t.Errorf("failed request not at the tail: %v", f)
	}
	if !math.IsNaN(dist(nil).quantile(0.5)) {
		t.Errorf("empty sample quantile should be NaN")
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "http", Start: 0, End: 100},
		{ID: 1, Layer: "gateway", Parent: "http", Start: 10, End: 90},
		// Two overlapping transport spans cover [20,70] once: 50.
		{ID: 1, Layer: "transport", Parent: "gateway", Start: 20, End: 50},
		{ID: 1, Layer: "transport", Parent: "gateway", Start: 40, End: 70},
		// Another request's spans never count against request 1.
		{ID: 2, Layer: "http", Start: 0, End: 40},
		{ID: 2, Layer: "gateway", Parent: "http", Start: 30, End: 60}, // clipped to [30,40]
	}
	want := []int64{20, 30, 30, 30, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s of %d) = %d, want %d", i, spans[i].Layer, spans[i].ID, got[i], want[i])
		}
	}
}

func TestJudgeStep(t *testing.T) {
	ok := step{Rate: 1000, Sent: 2000, Succeeded: 2000, P99ms: 5}
	cases := []struct {
		name string
		s    step
		want bool
	}{
		{"healthy", ok, true},
		{"p99 at the limit", func() step { s := ok; s.P99ms = 20; return s }(), false},
		{"errors", func() step { s := ok; s.Failed, s.Succeeded = 3, 1997; return s }(), false},
		{"one error in 2000", func() step { s := ok; s.Failed, s.Succeeded = 1, 1999; return s }(), true},
		// 1000 req/s x 20 ms = 20 requests of slack before the backlog grew.
		{"backlog within one limit", func() step { s := ok; s.Unsent = 20; return s }(), true},
		{"backlog grew", func() step { s := ok; s.Unsent = 21; return s }(), false},
		{"nothing sent", step{Rate: 1000}, false},
	}
	for _, c := range cases {
		if got := judge(c.s, 20); got != c.want {
			t.Errorf("%s: judge = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMaxRateStepSelection(t *testing.T) {
	steps := []step{
		{Rate: 4000, Pass: true},
		{Rate: 8000, Pass: true},
		{Rate: 16000, Pass: false},
		{Rate: 11314, Pass: true},
		{Rate: 13454, Pass: false},
		{Rate: 12338, Pass: true},
		// A noisy pass above the lowest failure does not count.
		{Rate: 14000, Pass: true},
	}
	if got := maxRate(steps); got != 12338 {
		t.Errorf("maxRate = %v, want 12338", got)
	}
	if got := maxRate([]step{{Rate: 4000, Pass: false}}); got != 0 {
		t.Errorf("maxRate with the reference failing = %v, want 0", got)
	}

	// The sweep resolves a knee to adjacent grid points in a handful of
	// steps, whatever side of the reference it sits.
	for _, knee := range []float64{0.3, 0.99, 3.3, 5.9, 17, 40} {
		tried := map[int]bool{}
		var ss []step
		n := 0
		for k, ok := sweepNext(tried, minGridIdx, maxGridIdx); ok; k, ok = sweepNext(tried, minGridIdx, maxGridIdx) {
			r := rateGrid(1000, k)
			tried[k] = r < knee*1000
			ss = append(ss, step{Rate: r, Pass: tried[k]})
			n++
		}
		got := maxRate(ss)
		if knee*1000 <= rateGrid(1000, maxGridIdx) {
			if !(got < knee*1000 && rateGrid(1000, 1)*got/1000 >= knee*1000*0.999) {
				t.Errorf("knee %vx: maxRate %v is not the grid point just below it", knee, got)
			}
		} else if got != rateGrid(1000, maxGridIdx) {
			t.Errorf("knee beyond the grid: maxRate %v, want the cap", got)
		}
		if got == 0 {
			t.Errorf("knee %vx: no passing rate found", knee)
		}
		if n > 11 {
			t.Errorf("knee %vx took %d steps", knee, n)
		}
	}
}

func TestTLBRatioOnThreeNodes(t *testing.T) {
	// Root 0 with leaves 1 and 2.
	tr := tree.MustFromParents([]int{tree.NoParent, 0, 0})
	cases := []struct {
		demand, served core.Vector
		tlb, ratio     float64
	}{
		// All demand at leaf 1: the optimum folds it with the root, 3 each;
		// leaf 2 cannot help (requests only climb).
		{core.Vector{0, 6, 0}, core.Vector{3, 3, 0}, 3, 1},
		{core.Vector{0, 6, 0}, core.Vector{0, 6, 0}, 3, 2},
		// Both leaves loaded: all three nodes share 12 evenly.
		{core.Vector{0, 6, 6}, core.Vector{4, 4, 4}, 4, 1},
		{core.Vector{0, 6, 6}, core.Vector{12, 0, 0}, 4, 3},
	}
	for _, c := range cases {
		ratio, tlb, err := tlbRatio(tr, c.demand, c.served)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tlb-c.tlb) > 1e-9 || math.Abs(ratio-c.ratio) > 1e-9 {
			t.Errorf("demand %v served %v: tlb %v ratio %v, want %v and %v", c.demand, c.served, tlb, ratio, c.tlb, c.ratio)
		}
	}
	if _, _, err := tlbRatio(tr, core.Vector{0, 0, 0}, core.Vector{0, 0, 0}); err == nil {
		t.Errorf("no demand: want an error")
	}
}

func TestMedianOfQuantiles(t *testing.T) {
	// 4000 samples support p99 in four parts of 1000. One part holds a
	// stall; the median of the parts' p99s ignores it, the plain p99 not.
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(i%1000) / 100 // 0..9.99 in every part
	}
	for i := 0; i < 50; i++ {
		xs[i] = 1000
	}
	if got := medianOfQuantiles(xs, 0.99, 8); got != 9.89 {
		t.Errorf("median of part p99s = %v, want 9.89", got)
	}
	if got := newDist(xs).quantile(0.99); got != 1000 {
		t.Errorf("plain p99 = %v, want the stall's 1000", got)
	}
	// Too few samples for two parts: the plain quantile.
	if got, want := medianOfQuantiles(xs[:1500], 0.99, 8), newDist(xs[:1500]).quantile(0.99); got != want {
		t.Errorf("1500 samples: %v, want the plain p99 %v", got, want)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

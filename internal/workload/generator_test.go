package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"webwave/internal/trace"
)

func genTrace(t *testing.T, sp Spec, seed int64) *Trace {
	t.Helper()
	sp = sp.WithDefaults()
	tr, err := BuildTree(sp, seed)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	w, err := Generate(sp, tr, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

func TestTraceDeterministic(t *testing.T) {
	for _, sp := range TraceSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			a := genTrace(t, sp, 42).Canonical()
			b := genTrace(t, sp, 42).Canonical()
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
			}
			c := genTrace(t, sp, 43).Canonical()
			if bytes.Equal(a, c) {
				t.Fatal("different seeds produced identical traces")
			}
		})
	}
}

func TestTraceOrderedAndInRange(t *testing.T) {
	sp, _ := Lookup("churn")
	w := genTrace(t, sp, 7)
	spd := sp.WithDefaults()
	if len(w.Requests) == 0 {
		t.Fatal("empty trace")
	}
	prev := 0.0
	for i, r := range w.Requests {
		if r.Time < prev {
			t.Fatalf("request %d out of order: %v < %v", i, r.Time, prev)
		}
		prev = r.Time
		if r.Time < 0 || r.Time >= spd.Duration {
			t.Fatalf("request %d time %v outside [0, %v)", i, r.Time, spd.Duration)
		}
		if r.Origin < 0 || r.Origin >= spd.Nodes {
			t.Fatalf("request %d origin %d out of range", i, r.Origin)
		}
	}
	prev = 0.0
	for i, ev := range w.Churn {
		if ev.Time < prev {
			t.Fatalf("churn %d out of order", i)
		}
		prev = ev.Time
	}
	if len(w.Churn) == 0 {
		t.Fatal("churn scenario generated no churn events")
	}
}

// TestZipfEmpiricalFrequencies checks the generated trace's document
// frequencies track the Zipf weights it was drawn from.
func TestZipfEmpiricalFrequencies(t *testing.T) {
	sp := Spec{
		Name: "zipf-test", Nodes: 15, NumDocs: 32,
		Popularity: PopZipf, ZipfSkew: 1.0,
		TotalRate: 2000, Duration: 30, Arrival: ArrivalPoisson,
	}.WithDefaults()
	w := genTrace(t, sp, 11)
	if len(w.Requests) < 20000 {
		t.Fatalf("want a large sample, got %d requests", len(w.Requests))
	}
	counts := make([]float64, sp.NumDocs)
	for _, r := range w.Requests {
		var j int
		if _, err := fmt.Sscanf(string(r.Doc), "doc-%d", &j); err != nil {
			t.Fatalf("bad doc id %q: %v", r.Doc, err)
		}
		counts[j]++
	}
	want := trace.ZipfWeights(sp.NumDocs, sp.ZipfSkew)
	n := float64(len(w.Requests))
	// The five head documents carry enough mass for tight relative bounds.
	for j := 0; j < 5; j++ {
		got := counts[j] / n
		if math.Abs(got-want[j]) > 0.25*want[j] {
			t.Errorf("doc %d empirical frequency %.4f, want %.4f ± 25%%", j, got, want[j])
		}
	}
	// Head-heavier than uniform: top 10% of docs should carry > 40% of
	// requests at skew 1.
	var head float64
	for j := 0; j < sp.NumDocs/10+1; j++ {
		head += counts[j]
	}
	if head/n < 0.4 {
		t.Errorf("Zipf head mass %.3f, want > 0.4", head/n)
	}
}

func TestFlashCrowdRampsRate(t *testing.T) {
	sp := Spec{
		Name: "flash-test", Nodes: 15, NumDocs: 16,
		Popularity: PopZipf, TotalRate: 500, Duration: 30,
		Flash: &FlashCrowd{Start: 10, Ramp: 2, Hold: 8, Decay: 2, Factor: 6, HotDocs: 2},
	}.WithDefaults()
	w := genTrace(t, sp, 5)
	var before, during float64
	hotDuring := 0.0
	for _, r := range w.Requests {
		switch {
		case r.Time < 10:
			before++
		case r.Time >= 12 && r.Time < 20:
			during++
			if r.Doc == DocID(0) || r.Doc == DocID(1) {
				hotDuring++
			}
		}
	}
	beforeRate := before / 10
	duringRate := during / 8
	if duringRate < 4*beforeRate {
		t.Errorf("flash rate %.1f req/s, want ≥ 4× base %.1f", duringRate, beforeRate)
	}
	if hotDuring/during < 0.7 {
		t.Errorf("hot-set share during flash %.2f, want > 0.7", hotDuring/during)
	}
}

func TestHotsetWeights(t *testing.T) {
	sp := Spec{
		Nodes: 7, NumDocs: 20, Popularity: PopHotset,
		HotsetSize: 4, HotsetShare: 0.8,
	}.WithDefaults()
	w := docWeights(sp)
	var hot, cold float64
	for j, x := range w {
		if j < 4 {
			hot += x
		} else {
			cold += x
		}
	}
	if math.Abs(hot-0.8) > 1e-9 || math.Abs(cold-0.2) > 1e-9 {
		t.Fatalf("hotset split %.3f/%.3f, want 0.8/0.2", hot, cold)
	}
}

// TestDocWeightsNormalized guards the invariant every consumer (sampling,
// demand matrices) relies on: weights sum to 1, including the degenerate
// all-hot case where the hotset split would otherwise sum to HotsetShare.
func TestDocWeightsNormalized(t *testing.T) {
	specs := []Spec{
		{Nodes: 7, NumDocs: 20, Popularity: PopZipf, ZipfSkew: 1.2},
		{Nodes: 7, NumDocs: 20, Popularity: PopUniform},
		{Nodes: 7, NumDocs: 20, Popularity: PopHotset, HotsetSize: 4, HotsetShare: 0.8},
		{Nodes: 7, NumDocs: 8, Popularity: PopHotset, HotsetSize: 8, HotsetShare: 0.8},
	}
	for _, sp := range specs {
		sp := sp.WithDefaults()
		sum := 0.0
		for _, x := range docWeights(sp) {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s/%d-of-%d weights sum to %v, want 1", sp.Popularity, sp.HotsetSize, sp.NumDocs, sum)
		}
	}
}

package workload

// Hot-key scenario: what does a replication forest buy against a single-URL
// flash crowd? One document's demand ramps far past a single server's
// capacity while every request funnels through one edge entry — the
// worst case for a lone routing tree, whose serving set for that traffic is
// exactly the home node. The forest run promotes the document onto K-1
// replica roots (home's least-loaded children, as the live server picks
// them) once the shared hysteresis state machine (forest.PromoTracker — the
// same type the live control loop steps) fires, routes each request to the
// less loaded of two sampled trees (forest.TwoChoices — the same pick the
// live gateway makes), and demotes when the crowd subsides.
//
// The runner is a seeded capacity model in virtual time — bit-for-bit
// deterministic, so CI can gate its figures without wall-clock noise. The
// modeling assumption matches the live gateway path: a routed request
// enters AT a replica root and is served there (the root holds the copy),
// so the forest's serving set for the crowd is the K tree roots, each a
// server of NodeCapacity req/s; demand beyond a root's capacity in a
// window is lost, exactly like an overloaded origin. Jain fairness is
// computed over cumulative per-node serves across the whole tree, so
// concentrating the crowd on one node shows up as unfairness.

import (
	"fmt"
	"math/rand"
	"slices"

	"webwave/internal/forest"
	"webwave/internal/stats"
	"webwave/internal/tree"
)

// HotkeySchema identifies hot-key reports.
const HotkeySchema = "webwave-hotkey/v1"

// HotkeySpec parameterizes the hot-key scenario. K counts the trees in the
// forest: K=1 is the unreplicated protocol (the single home tree — the
// baseline the speedup is judged against), K≥2 promotes the hot document
// onto K-1 replica roots in disjoint sibling subtrees.
type HotkeySpec struct {
	Seed        int64 `json:"seed"`
	Nodes       int   `json:"nodes"`        // tree size; default 31
	MaxChildren int   `json:"max_children"` // branching bound; default 3

	NodeCapacity float64 `json:"node_capacity"` // req/s one server sustains; default 50
	BaseRate     float64 `json:"base_rate"`     // steady demand for the document, req/s; default 20

	// The flash envelope: demand ramps linearly to PeakFactor×BaseRate over
	// Ramp seconds starting at Start, holds for Hold, decays over Decay.
	Start      float64 `json:"start_s"`     // default 6
	Ramp       float64 `json:"ramp_s"`      // default 4
	Hold       float64 `json:"hold_s"`      // default 18
	Decay      float64 `json:"decay_s"`     // default 4
	PeakFactor float64 `json:"peak_factor"` // default 30 (peak 600 req/s)

	Duration float64 `json:"duration_s"` // default 40
	Window   float64 `json:"window_s"`   // observation/metrics window; default 1

	// Promotion hysteresis, mirroring server.Config's knobs.
	PromoteThreshold float64 `json:"promote_threshold"` // req/s; default 100
	DemoteThreshold  float64 `json:"demote_threshold"`  // req/s; default threshold/4
	Hysteresis       int     `json:"hysteresis"`        // windows; default 2

	Ks []int `json:"ks"` // forest widths to sweep; default [1, 3]
}

// WithDefaults fills unset fields.
func (s HotkeySpec) WithDefaults() HotkeySpec {
	if s.Nodes <= 0 {
		s.Nodes = 31
	}
	if s.MaxChildren <= 0 {
		s.MaxChildren = 3
	}
	if s.NodeCapacity <= 0 {
		s.NodeCapacity = 50
	}
	if s.BaseRate <= 0 {
		s.BaseRate = 20
	}
	if s.Start <= 0 {
		s.Start = 6
	}
	if s.Ramp <= 0 {
		s.Ramp = 4
	}
	if s.Hold <= 0 {
		s.Hold = 18
	}
	if s.Decay <= 0 {
		s.Decay = 4
	}
	if s.PeakFactor <= 1 {
		s.PeakFactor = 30
	}
	if s.Duration <= 0 {
		s.Duration = 40
	}
	if s.Window <= 0 {
		s.Window = 1
	}
	if s.PromoteThreshold <= 0 {
		s.PromoteThreshold = 100
	}
	if s.DemoteThreshold <= 0 {
		s.DemoteThreshold = s.PromoteThreshold / 4
	}
	if s.Hysteresis <= 0 {
		s.Hysteresis = 2
	}
	if len(s.Ks) == 0 {
		s.Ks = []int{1, 3}
	}
	return s
}

// HotkeyRun is one forest width's outcome.
type HotkeyRun struct {
	K     int   `json:"k"`
	Roots []int `json:"roots,omitempty"` // replica roots the promotion picked

	Offered       int64   `json:"offered"`
	Served        int64   `json:"served"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Jain is fairness over cumulative per-node serves across the whole
	// tree — the figure that shows the crowd spreading over the forest.
	Jain float64 `json:"jain"`

	Promotions int `json:"promotions"`
	Demotions  int `json:"demotions"`
	// PromotedAtS / DemotedAtS are the virtual times of the first promotion
	// and the last demotion, -1 when the transition never fired. A full
	// round trip (promote during the ramp, demote after the decay) is what
	// the CI gate demands of every K>1 run.
	PromotedAtS float64 `json:"promoted_at_s"`
	DemotedAtS  float64 `json:"demoted_at_s"`
}

// HotkeyReport is the hot-key scenario JSON document.
type HotkeyReport struct {
	Schema   string      `json:"schema"`
	Scenario string      `json:"scenario"`
	Spec     HotkeySpec  `json:"spec"`
	Runs     []HotkeyRun `json:"runs"`

	// ScalingX is throughput at the widest forest over throughput at K=1 —
	// the headline figure the gate floors. JainRatio compares the same two
	// runs' fairness.
	ScalingX  float64 `json:"scaling_x"`
	JainRatio float64 `json:"jain_ratio"`
}

// Run returns the run at forest width k, or nil.
func (r *HotkeyReport) Run(k int) *HotkeyRun {
	for i := range r.Runs {
		if r.Runs[i].K == k {
			return &r.Runs[i]
		}
	}
	return nil
}

// Hot-key gate thresholds.
const (
	hotkeyMinScaling   = 2.0  // widest-forest / k=1 throughput
	hotkeyMinJainRatio = 0.90 // widest-forest Jain relative to the k=1 run
)

// Checks gates the replication-forest floor: the widest forest must beat
// the single tree in throughput while keeping its fairness, and every
// multi-tree run must complete a promote/demote round trip — promotion
// during the ramp AND demotion after the decay, so the hysteresis can never
// be satisfied by a forest that promotes and sticks. The baseline pins the
// spec, K sweep included.
func (r *HotkeyReport) Checks(base *HotkeyReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	out := []Check{
		check(r.Run(1) != nil, "k=1 baseline run present in the sweep"),
		check(r.ScalingX >= hotkeyMinScaling,
			"widest forest scales %.2fx over k=1 (floor %.2fx)", r.ScalingX, hotkeyMinScaling),
		check(r.JainRatio >= hotkeyMinJainRatio,
			"widest forest jain ratio %.3f vs k=1 (floor %.2f)", r.JainRatio, hotkeyMinJainRatio),
	}
	for _, run := range r.Runs {
		if run.K <= 1 {
			continue
		}
		out = append(out,
			check(run.Promotions >= 1 && run.Demotions >= 1,
				"k=%d promote/demote round trip (%d promotions, %d demotions)",
				run.K, run.Promotions, run.Demotions),
			check(run.PromotedAtS >= 0 && run.DemotedAtS > run.PromotedAtS,
				"k=%d promoted at %.1fs, demoted at %.1fs", run.K, run.PromotedAtS, run.DemotedAtS))
	}
	return out, nil
}

// RunHotkey executes the sweep and assembles the report. The log callback
// (may be nil) receives one line per forest width.
func RunHotkey(sp HotkeySpec, logf Logf) (*HotkeyReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario hot-key: %d nodes, forest widths %v; one document ramping %.0f -> %.0f req/s against %.0f req/s per server",
		sp.Nodes, sp.Ks, sp.BaseRate, sp.BaseRate*sp.PeakFactor, sp.NodeCapacity)
	if sp.Window > sp.Duration {
		return nil, fmt.Errorf("hotkey: window %v > duration %v", sp.Window, sp.Duration)
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	t, err := tree.RandomBounded(sp.Nodes, sp.MaxChildren, rng)
	if err != nil {
		return nil, fmt.Errorf("hotkey: tree: %w", err)
	}
	// The document's home: the node with the most children, so the widest
	// forest has sibling subtrees to promote into. (Deterministic scan; the
	// live system's home is wherever the document was published.)
	home := t.Root()
	for v := 0; v < t.Len(); v++ {
		if len(t.Children(v)) > len(t.Children(home)) {
			home = v
		}
	}
	maxK := 0
	for _, k := range sp.Ks {
		if k < 1 {
			return nil, fmt.Errorf("hotkey: forest width %d < 1", k)
		}
		if k > maxK {
			maxK = k
		}
	}
	if want := maxK - 1; want > len(t.Children(home)) {
		return nil, fmt.Errorf("hotkey: widest forest needs %d replica roots but the home has only %d children (reseed or widen the tree)",
			want, len(t.Children(home)))
	}

	rep := &HotkeyReport{Schema: HotkeySchema, Scenario: "hot-key", Spec: sp}
	for _, k := range sp.Ks {
		run := hotkeyRun(sp, t, home, k)
		logf("  k=%d: served %d/%d (%.1f req/s), jain %.3f, promoted@%.0fs demoted@%.0fs, roots %v",
			k, run.Served, run.Offered, run.ThroughputRPS, run.Jain,
			run.PromotedAtS, run.DemotedAtS, run.Roots)
		rep.Runs = append(rep.Runs, run)
	}
	base, widest := rep.Run(1), rep.Run(maxK)
	if base != nil && widest != nil && base.ThroughputRPS > 0 {
		rep.ScalingX = round6(widest.ThroughputRPS / base.ThroughputRPS)
		if base.Jain > 0 {
			rep.JainRatio = round6(widest.Jain / base.Jain)
		}
	}
	logf("  scaling %.2fx throughput at the widest forest vs k=1, jain ratio %.3f", rep.ScalingX, rep.JainRatio)
	return rep, nil
}

// hotkeyRun plays the flash envelope against one forest width.
func hotkeyRun(sp HotkeySpec, t *tree.Tree, home, k int) HotkeyRun {
	rng := rand.New(rand.NewSource(sp.Seed + int64(1000*k)))
	flash := &FlashCrowd{
		Start: sp.Start, Ramp: sp.Ramp, Hold: sp.Hold, Decay: sp.Decay,
		Factor: sp.PeakFactor,
	}
	cfg := forest.PromoConfig{
		PromoteThreshold: sp.PromoteThreshold,
		DemoteThreshold:  sp.DemoteThreshold,
		Hysteresis:       sp.Hysteresis,
	}.WithDefaults()

	run := HotkeyRun{K: k, PromotedAtS: -1, DemotedAtS: -1}
	var tracker forest.PromoTracker
	served := make([]float64, t.Len())    // cumulative per node, for Jain
	var roots []int                       // replica roots while promoted
	budget := sp.NodeCapacity * sp.Window // per-node serves per window

	windows := int(sp.Duration/sp.Window + 0.5)
	for w := 0; w < windows; w++ {
		mid := (float64(w) + 0.5) * sp.Window
		rate := sp.BaseRate * flash.factorAt(mid)
		n := int(rate*sp.Window + 0.5)
		run.Offered += int64(n)

		// The home observes the document's demand once per window and steps
		// the same hysteresis machine the live control loop runs. Width 1
		// is the unreplicated baseline: no promotion machinery at all.
		if k > 1 {
			switch tracker.Observe(rate, cfg) {
			case forest.PromoPromote:
				roots = forest.PickReplicaRoots(t.Children(home),
					func(v int) float64 { return served[v] }, k-1)
				run.Promotions++
				if run.PromotedAtS < 0 {
					run.PromotedAtS = round6(mid)
					run.Roots = slices.Clone(roots)
					slices.Sort(run.Roots)
				}
			case forest.PromoDemote:
				roots = nil
				run.Demotions++
				run.DemotedAtS = round6(mid)
			}
		}

		// Serving set: the home tree plus, while promoted, one tree per
		// replica root. Each routed request enters at the less loaded of
		// two sampled trees; per-tree serves cap at the root's capacity.
		serving := append([]int{home}, roots...)
		assigned := make(map[int]int, len(serving))
		for i := 0; i < n; i++ {
			v := forest.TwoChoices(serving,
				func(u int) float64 { return float64(assigned[u]) }, rng)
			assigned[v]++
		}
		for _, v := range serving {
			got := float64(assigned[v])
			if got > budget {
				got = budget
			}
			served[v] += got
			run.Served += int64(got + 0.5)
		}
	}

	run.ThroughputRPS = round6(float64(run.Served) / sp.Duration)
	run.Jain = round6(stats.JainIndex(served))
	return run
}

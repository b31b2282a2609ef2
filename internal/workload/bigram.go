package workload

// Bigger-than-ram scenario: the corpus is ~10x every node's memory budget,
// so a memory-only cluster thrashes — each delegated copy evicts another,
// duty bounces back upstream, and the hit rate (share of serves below the
// home server) collapses toward the root. Three closed-loop passes on the
// identical workload measure what the disk tier buys back:
//
//	in-ram:    unlimited memory — the ceiling the tier is judged against
//	mem-only:  the small memory budget alone — the thrashing floor
//	two-tier:  the same memory budget plus a disk tier holding the corpus
//
// The gates: two-tier's hit rate must stay within a tolerance of in-ram's
// (the disk tier absorbs the overflow instead of shedding it), mem-only
// must lose at least DropRatio times more hit rate than two-tier (the
// thrash is real, the fix is real), and two-tier must actually serve from
// disk (disk_hits > 0). Wall-clock measurement: NOT deterministic;
// BigramReport.Checks applies thresholds, not byte equality.

import (
	"fmt"
	"os"

	"webwave/internal/transport"
)

// BigramSchema identifies bigger-than-ram reports.
const BigramSchema = "webwave-bigram/v1"

// BigramSpec parameterizes the scenario. CacheBudgetBytes defaults to the
// corpus size over MemoryRatio — "a tenth of the data fits in RAM".
type BigramSpec struct {
	Seed      int64   `json:"seed"`
	Nodes     int     `json:"nodes"`      // tree size; default 15
	Clients   int     `json:"clients"`    // closed-loop injectors; default 16
	NumDocs   int     `json:"num_docs"`   // corpus size; default 256
	BodyBytes int     `json:"body_bytes"` // document body size; default 4096
	ZipfSkew  float64 `json:"zipf_skew"`  // popularity skew; default 0.7
	Duration  float64 `json:"duration_s"` // measured seconds per pass; default 2

	// MemoryRatio is corpus-bytes : memory-budget (default 10 — the corpus
	// is ten times what memory holds). CacheBudgetBytes overrides directly.
	MemoryRatio      float64 `json:"memory_ratio"`
	CacheBudgetBytes int64   `json:"cache_budget_bytes"`
	// DiskBudgetBytes bounds the two-tier pass's disk store (default: the
	// whole corpus fits).
	DiskBudgetBytes int64 `json:"disk_budget_bytes"`
}

// WithDefaults fills unset fields.
func (s BigramSpec) WithDefaults() BigramSpec {
	if s.Nodes <= 0 {
		s.Nodes = 15
	}
	if s.Clients <= 0 {
		s.Clients = 16 // the committed baseline's figure
	}
	if s.NumDocs <= 0 {
		s.NumDocs = 256
	}
	if s.BodyBytes <= 0 {
		s.BodyBytes = 4096
	}
	if s.ZipfSkew <= 0 {
		s.ZipfSkew = 0.7
	}
	if s.Duration <= 0 {
		s.Duration = 2
	}
	if s.MemoryRatio <= 0 {
		s.MemoryRatio = 10
	}
	corpus := int64(s.NumDocs) * int64(s.BodyBytes)
	if s.CacheBudgetBytes <= 0 {
		s.CacheBudgetBytes = int64(float64(corpus) / s.MemoryRatio)
	}
	if s.DiskBudgetBytes <= 0 {
		s.DiskBudgetBytes = 2 * corpus
	}
	return s
}

// BigramPassReport is one pass's figures.
type BigramPassReport struct {
	Responses     int64   `json:"responses"`
	ThroughputRPS float64 `json:"throughput_rps"`
	HitRate       float64 `json:"hit_rate"` // share of serves below the home server
	MeanHops      float64 `json:"mean_hops"`
	ServingNodes  int     `json:"serving_nodes"`
	DiskHits      int64   `json:"disk_hits"`
}

// BigramReport is the bigger-than-ram JSON document.
type BigramReport struct {
	Schema   string     `json:"schema"`
	Scenario string     `json:"scenario"`
	Spec     BigramSpec `json:"spec"`

	InRAM   BigramPassReport `json:"in_ram"`
	MemOnly BigramPassReport `json:"mem_only"`
	TwoTier BigramPassReport `json:"two_tier"`

	// HitDrop figures: in-ram hit rate minus each constrained pass's. The
	// gate bounds two-tier's drop and requires mem-only's to be a multiple
	// of it.
	MemOnlyHitDrop float64 `json:"mem_only_hit_drop"`
	TwoTierHitDrop float64 `json:"two_tier_hit_drop"`
}

// Bigger-than-ram gate thresholds.
const (
	bigramMaxTwoTierRegress = 0.10 // two-tier hit-rate drop vs the in-ram ceiling, fractional
	bigramMinDropRatio      = 2.0  // mem-only hit drop as a multiple of two-tier's
	bigramMinMemOnlyDrop    = 0.10 // mem-only hit drop that proves the corpus exceeds memory
)

// Checks gates the disk-tier floor. All three figures come from the same
// report — the in-ram ceiling is re-measured every run, so the comparison
// is same-hardware by construction and the baseline only pins the spec (a
// corpus that fits in memory would gate nothing). A gentle workload where
// nothing thrashes fails rather than vacuously passing.
func (r *BigramReport) Checks(base *BigramReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	twoTierDrop := max(r.TwoTierHitDrop, 0) // two-tier beating in-ram only makes the ratio easier
	ratio := 999.0                          // display only: a zero denominator is effectively infinite
	if twoTierDrop > 0 {
		ratio = r.MemOnlyHitDrop / twoTierDrop
	}
	return []Check{
		check(r.TwoTier.HitRate >= r.InRAM.HitRate*(1-bigramMaxTwoTierRegress),
			"two-tier hit rate %.4f within %.0f%% of in-ram %.4f",
			r.TwoTier.HitRate, bigramMaxTwoTierRegress*100, r.InRAM.HitRate),
		check(r.MemOnlyHitDrop >= bigramMinMemOnlyDrop,
			"mem-only hit drop %.4f (floor %.2f — the constrained budget must actually thrash)",
			r.MemOnlyHitDrop, bigramMinMemOnlyDrop),
		check(r.MemOnlyHitDrop >= bigramMinDropRatio*twoTierDrop,
			"mem-only drop %.4f is %.1fx two-tier drop %.4f (floor %.1fx)",
			r.MemOnlyHitDrop, ratio, r.TwoTierHitDrop, bigramMinDropRatio),
		check(r.TwoTier.DiskHits > 0,
			"two-tier disk hits %d (the tier must actually serve)", r.TwoTier.DiskHits),
	}, nil
}

// RunBigram executes the three passes and assembles the report. The log
// callback (may be nil) receives one line per pass.
func RunBigram(sp BigramSpec, logf Logf) (*BigramReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario bigger-than-ram: %d nodes, %d docs x %d B (corpus %d B), memory budget %d B, disk budget %d B, %.1fs per pass",
		sp.Nodes, sp.NumDocs, sp.BodyBytes, int64(sp.NumDocs)*int64(sp.BodyBytes),
		sp.CacheBudgetBytes, sp.DiskBudgetBytes, sp.Duration)
	base := ClosedLoopSpec{
		Seed: sp.Seed, Nodes: sp.Nodes, Clients: sp.Clients,
		NumDocs: sp.NumDocs, BodyBytes: sp.BodyBytes, ZipfSkew: sp.ZipfSkew,
		Duration: sp.Duration, Network: transport.TCPNetwork{},
	}

	run := func(name string, mut func(*ClosedLoopSpec)) (BigramPassReport, error) {
		cl := base
		mut(&cl)
		res, err := RunClosedLoop(cl)
		if err != nil {
			return BigramPassReport{}, fmt.Errorf("bigram: %s pass: %w", name, err)
		}
		rep := BigramPassReport{
			Responses:     res.Responses,
			ThroughputRPS: res.ThroughputRPS,
			HitRate:       res.HitRate,
			MeanHops:      res.MeanHops,
			ServingNodes:  res.ServingNodes,
			DiskHits:      res.DiskHits,
		}
		logf("  %-8s %6d resp, hit rate %.4f, disk hits %d", name+":", rep.Responses, rep.HitRate, rep.DiskHits)
		return rep, nil
	}

	inram, err := run("in-ram", func(*ClosedLoopSpec) {})
	if err != nil {
		return nil, err
	}
	memonly, err := run("mem-only", func(cl *ClosedLoopSpec) {
		cl.CacheBudgetBytes = sp.CacheBudgetBytes
	})
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp("", "webwave-bigram-")
	if err != nil {
		return nil, fmt.Errorf("bigram: data dir: %w", err)
	}
	defer os.RemoveAll(dataDir)
	twotier, err := run("two-tier", func(cl *ClosedLoopSpec) {
		cl.CacheBudgetBytes = sp.CacheBudgetBytes
		cl.DiskBudgetBytes = sp.DiskBudgetBytes
		cl.DataDir = dataDir
	})
	if err != nil {
		return nil, err
	}

	return &BigramReport{
		Schema: BigramSchema, Scenario: "bigger-than-ram", Spec: sp,
		InRAM: inram, MemOnly: memonly, TwoTier: twotier,
		MemOnlyHitDrop: round6(inram.HitRate - memonly.HitRate),
		TwoTierHitDrop: round6(inram.HitRate - twotier.HitRate),
	}, nil
}

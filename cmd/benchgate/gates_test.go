package main

// Per-report gate cases: synthetic reports walk each report's Checks
// through the full dispatch, one case per threshold, and assert the exact
// FAIL line (or the workload-pin error) each regression must produce.

import (
	"strings"
	"testing"

	"webwave/internal/workload"
)

// ---------------------------------------------------------------------------
// Cache gate (trace-replay reports).

func report(hitHeat, hitLRU float64, overBudget bool) *workload.Report {
	return &workload.Report{
		Schema: workload.Schema, Scenario: "cache-pressure", Seed: 1,
		Systems: []workload.SystemResult{
			{Name: "webwave-heat", Cache: &workload.CacheResult{
				Policy: "heat", BudgetBytes: 40960, HitRate: hitHeat, OverBudget: overBudget,
				MaxNodeBytes: 40960,
			}},
			{Name: "webwave-lru", Cache: &workload.CacheResult{
				Policy: "lru", BudgetBytes: 40960, HitRate: hitLRU, MaxNodeBytes: 40960,
			}},
			{Name: "no-cache"}, // no cache summary: ignored by the gate
		},
	}
}

func TestGatePasses(t *testing.T) {
	// Slightly lower but within the 10% band.
	expectPass(t, report(0.28, 0.26, false), report(0.30, 0.28, false))
}

func TestGateFailsOnRegression(t *testing.T) {
	expectFail(t, report(0.20, 0.28, false), report(0.30, 0.28, false), // heat fell 33%
		"FAIL webwave-heat   hit rate 0.2000 fell >10% below baseline 0.3000",
		"benchgate: 1 cache regression(s) vs baseline")
}

func TestGateFailsOnBudgetViolation(t *testing.T) {
	expectFail(t, report(0.30, 0.28, true), report(0.30, 0.28, false),
		"FAIL webwave-heat   exceeded its byte budget (max node 40960 > 40960)")
}

func TestGateFailsOnMissingSystem(t *testing.T) {
	rep := report(0.30, 0.28, false)
	rep.Systems = rep.Systems[:1] // drop webwave-lru
	expectFail(t, rep, report(0.30, 0.28, false),
		"FAIL webwave-lru    missing from the report (baseline hit 0.2800)")
}

func TestGateRejectsMismatchedRuns(t *testing.T) {
	base := report(0.30, 0.28, false)
	base.Seed = 2
	expectFail(t, report(0.30, 0.28, false), base, "are different runs; regenerate the baseline")
}

// ---------------------------------------------------------------------------
// Core-scaling gate.

func scalingReport(effs map[int]float64, perCore map[int]float64) *workload.ScalingReport {
	procs := []int{1, 2, 4}
	rep := &workload.ScalingReport{
		Schema: workload.ScalingSchema, Scenario: "core-scaling",
		Spec: workload.ScalingSpec{Procs: procs},
	}
	for _, p := range procs {
		if _, ok := effs[p]; !ok {
			continue
		}
		rep.Runs = append(rep.Runs, workload.ScalingRun{
			Procs: p, Shards: p, Efficiency: effs[p], PerCoreRPS: perCore[p],
		})
	}
	return rep
}

func TestScalingGatePasses(t *testing.T) {
	// Within the 15% band at every common core count; raw req/s far lower
	// (different hardware) must only warn.
	base := scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.6}, map[int]float64{1: 50e3, 2: 40e3, 4: 30e3})
	rep := scalingReport(map[int]float64{1: 1, 2: 0.72, 4: 0.55}, map[int]float64{1: 20e3, 2: 15e3, 4: 11e3})
	expectPass(t, rep, base)
	if got := gate(t, rep, base); !strings.Contains(got, "warn procs=4 raw    11000 req/s/core vs baseline    30000") {
		t.Errorf("raw per-core drop not warned:\n%s", got)
	}
}

func TestScalingGateFailsOnEfficiencyDrop(t *testing.T) {
	expectFail(t, scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.4}, nil), // 4-proc eff fell 33%
		scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.6}, nil),
		"FAIL procs=4 efficiency 0.4000 fell >15% below baseline 0.6000",
		"benchgate: 1 core-scaling regression(s) vs baseline")
}

func TestScalingGateSubsetSweep(t *testing.T) {
	// CI sweeps 1,4 against a committed 1,2,4 baseline: only common core
	// counts are compared, and that must be enough to gate.
	rep := scalingReport(map[int]float64{1: 1, 4: 0.58}, nil)
	rep.Spec.Procs = []int{1, 4}
	expectPass(t, rep, scalingReport(map[int]float64{1: 1, 2: 0.8, 4: 0.6}, nil))
}

func TestScalingGateRejectsMismatchedBase(t *testing.T) {
	rep := scalingReport(map[int]float64{1: 1, 2: 0.8}, nil)
	rep.Spec.Procs = []int{2, 4} // efficiency normalized to 2 procs, not 1
	expectFail(t, rep, scalingReport(map[int]float64{1: 1, 2: 0.8}, nil),
		"report sweep starts at 2 procs, baseline at 1")
}

func TestScalingGateNoCommonProcs(t *testing.T) {
	rep := scalingReport(map[int]float64{1: 1}, nil)
	rep.Spec.Procs = []int{1}
	expectFail(t, rep, scalingReport(map[int]float64{1: 1, 2: 0.8}, nil),
		"no common core counts beyond the sweep base")
}

func TestScalingGateRejectsDifferentWorkload(t *testing.T) {
	base := scalingReport(map[int]float64{1: 1, 2: 0.8}, nil)
	base.Spec.Clients = 64
	expectFail(t, scalingReport(map[int]float64{1: 1, 2: 0.8}, nil), base, "are different workloads")
}

// ---------------------------------------------------------------------------
// Chaos gate.

func chaosReport(avail, jainRatio float64, reconnects int64, orphaned int) *workload.ChaosReport {
	return &workload.ChaosReport{
		Schema: workload.ChaosSchema, Scenario: "chaos",
		Spec: workload.ChaosSpec{
			Seed: 1, Nodes: 31, NumDocs: 48, TotalRate: 600, Duration: 12,
			KillFraction: 0.10,
		},
		Killed:          []int{4},
		Offered:         7200,
		Responses:       int64(avail * 7200),
		Availability:    avail,
		PostRepairJain:  0.5 * jainRatio,
		NoFailJain:      0.5,
		JainRatio:       jainRatio,
		Reconnects:      reconnects,
		ReabsorbSeconds: 0.25,
		FinalOrphaned:   orphaned,
	}
}

func chaosBase() *workload.ChaosReport { return chaosReport(0.99, 1.0, 2, 0) }

func TestChaosGatePasses(t *testing.T) {
	expectPass(t, chaosReport(0.96, 0.95, 1, 0), chaosBase())
}

func TestChaosGateFailsOnLowAvailability(t *testing.T) {
	expectFail(t, chaosReport(0.90, 1.0, 2, 0), chaosBase(),
		"FAIL availability 0.9000 under 1 kills (floor 0.9500)", "benchgate: 1 chaos gate violation(s)")
}

func TestChaosGateFailsOnJainCollapse(t *testing.T) {
	expectFail(t, chaosReport(0.99, 0.7, 2, 0), chaosBase(),
		"FAIL post-repair jain 0.350 = 0.700 of the no-failure run (floor 0.90)")
}

func TestChaosGateFailsWithoutRepair(t *testing.T) {
	// No failover observed and an orphan left behind.
	expectFail(t, chaosReport(0.99, 1.0, 0, 1), chaosBase(),
		"FAIL reconnects 0", "FAIL orphaned at end 1", "benchgate: 2 chaos gate violation(s)")
}

func TestChaosGateRejectsDifferentWorkload(t *testing.T) {
	shrunk := chaosBase()
	shrunk.Spec.KillFraction = 0.01 // gentler kills than the gated scenario
	expectFail(t, shrunk, chaosBase(), "are different workloads")
}

func TestChaosGateFailsOnFailedRevives(t *testing.T) {
	broken := chaosBase()
	broken.FailedRevives = 1
	expectFail(t, broken, chaosBase(), "FAIL failed revives 1")
}

// ---------------------------------------------------------------------------
// Restart gate.

func restartReport(warmAvail, coldReabsorb, warmReabsorb float64, warmDocs int64) *workload.RestartReport {
	spec := workload.RestartSpec{
		ChaosSpec: workload.ChaosSpec{
			Seed: 1, Nodes: 31, NumDocs: 48, TotalRate: 600, Duration: 12,
			KillFraction: 0.10,
		},
		CacheBudgetBytes: 16 << 10,
	}
	return &workload.RestartReport{
		Schema: workload.RestartSchema, Scenario: "restart", Spec: spec,
		Killed: []int{4},
		Cold: workload.RestartPassReport{
			Offered: 7200, Responses: 7100, Availability: 0.986,
			PostRestartAvailability: 0.985, ReabsorbSeconds: coldReabsorb, Reconnects: 2,
		},
		Warm: workload.RestartPassReport{
			Offered: 7200, Responses: 7150, Availability: 0.993,
			PostRestartAvailability: warmAvail, ReabsorbSeconds: warmReabsorb, Reconnects: 2,
			WarmDocs: warmDocs, DiskHits: 40,
		},
	}
}

func restartBase() *workload.RestartReport { return restartReport(0.995, 0.08, 0.04, 6) }

func TestRestartGatePasses(t *testing.T) {
	expectPass(t, restartReport(0.990, 0.07, 0.03, 5), restartBase())
}

func TestRestartGateFailsOnColdWarmPass(t *testing.T) {
	// Warm availability below the floor: the tier bought nothing.
	expectFail(t, restartReport(0.90, 0.08, 0.04, 6), restartBase(),
		"FAIL warm post-restart availability 0.9000 (floor 0.9810; cold 0.9850)")
}

func TestRestartGateFailsWithoutWarmDocs(t *testing.T) {
	// warm_docs 0: the warm pass degenerated to a second cold run.
	expectFail(t, restartReport(0.995, 0.08, 0.04, 0), restartBase(), "FAIL warm docs recovered 0")
}

func TestRestartGateReabsorbRelativeArm(t *testing.T) {
	// Warm reabsorb over the absolute ceiling but inside one
	// failure-detection window (3 x 40ms default heartbeat) of cold: that's
	// detector quantization or a loaded CI box, so this must pass.
	within := restartReport(0.995, 0.30, 0.40, 6)
	expectPass(t, within, within)
	// But warm beyond BOTH the ceiling and cold + the window fails.
	slow := restartReport(0.995, 0.30, 0.50, 6)
	expectFail(t, slow, slow,
		"FAIL warm reabsorb 0.50s (ceiling 0.06s, cold 0.30s + 0.12s detection window)")
}

func TestRestartGateFailsOnFailedRevives(t *testing.T) {
	broken := restartBase()
	broken.Warm.FailedRevives = 1
	expectFail(t, broken, restartBase(), "FAIL failed revives cold 0 warm 1")
}

func TestRestartGateRejectsDifferentWorkload(t *testing.T) {
	eased := restartBase()
	eased.Spec.CacheBudgetBytes = 1 << 30 // nothing evicts, nothing to recover
	expectFail(t, eased, restartBase(), "are different workloads")
}

// ---------------------------------------------------------------------------
// Bigger-than-ram gate.

func bigramReport(inram, memonly, twotier float64, diskHits int64) *workload.BigramReport {
	return &workload.BigramReport{
		Schema: workload.BigramSchema, Scenario: "bigger-than-ram",
		Spec: workload.BigramSpec{
			Seed: 1, Nodes: 15, Clients: 24, NumDocs: 256, BodyBytes: 4096,
			ZipfSkew: 0.7, Duration: 2, MemoryRatio: 10,
			CacheBudgetBytes: 104857, DiskBudgetBytes: 2097152,
		},
		InRAM:          workload.BigramPassReport{HitRate: inram},
		MemOnly:        workload.BigramPassReport{HitRate: memonly},
		TwoTier:        workload.BigramPassReport{HitRate: twotier, DiskHits: diskHits},
		MemOnlyHitDrop: inram - memonly,
		TwoTierHitDrop: inram - twotier,
	}
}

func bigramBase() *workload.BigramReport { return bigramReport(0.82, 0.31, 0.81, 8000) }

func TestBigramGatePasses(t *testing.T) {
	expectPass(t, bigramReport(0.80, 0.35, 0.78, 6000), bigramBase())
}

func TestBigramGateFailsOnTwoTierCollapse(t *testing.T) {
	// Two-tier more than 10% below the in-ram ceiling: the tier leaks.
	expectFail(t, bigramReport(0.82, 0.31, 0.60, 8000), bigramBase(),
		"FAIL two-tier hit rate 0.6000 within 10% of in-ram 0.8200")
}

func TestBigramGateFailsWithoutThrash(t *testing.T) {
	// Mem-only barely dropping means the workload is not actually bigger
	// than ram — the scenario gates nothing and must fail loudly.
	flat := bigramReport(0.82, 0.80, 0.81, 8000)
	expectFail(t, flat, flat, "FAIL mem-only hit drop 0.0200 (floor 0.10")
}

func TestBigramGateFailsWithoutDiskHits(t *testing.T) {
	expectFail(t, bigramReport(0.82, 0.31, 0.81, 0), bigramBase(), "FAIL two-tier disk hits 0")
}

func TestBigramGateRejectsDifferentWorkload(t *testing.T) {
	eased := bigramBase()
	eased.Spec.CacheBudgetBytes = 1 << 30 // the corpus fits in memory
	expectFail(t, eased, bigramBase(), "are different workloads")
}

// ---------------------------------------------------------------------------
// Update-heavy gate.

func updateReport(p99, hitRateCost float64) *workload.UpdateReport {
	return &workload.UpdateReport{
		Schema: workload.UpdateSchema, Scenario: "update-heavy",
		Spec: workload.UpdateSpec{Seed: 1}.WithDefaults(),
		ReadOnly: workload.UpdatePass{
			Offered: 6000, Responses: 6000, HitRate: 0.88, Jain: 0.66,
		},
		Update: workload.UpdatePass{
			Offered: 5400, Writes: 600, Responses: 5400,
			HitRate: 0.88 * (1 - hitRateCost), Jain: 0.62,
			Staleness: workload.StalenessStats{
				Samples: 5000, Stale: 80, P99: p99, Max: p99,
			},
			RepublishesIn: 900, InvalidationsIn: 400, LeaseRefreshes: 50,
		},
		HitRateCost:      hitRateCost,
		DiffusionPeriodS: 0.04,
	}
}

func updateBase() *workload.UpdateReport { return updateReport(0.002, 0.01) }

func TestUpdateGatePasses(t *testing.T) {
	expectPass(t, updateReport(0.01, 0.05), updateBase())
}

func TestUpdateGateFailsOnStaleness(t *testing.T) {
	// p99 over one diffusion period (the ceiling, read from the report).
	expectFail(t, updateReport(0.09, 0.01), updateBase(),
		"FAIL p99 staleness 0.0900s (ceiling 0.0400s, one diffusion period 0.0400s)")
}

func TestUpdateGateFailsOnHitRateCost(t *testing.T) {
	expectFail(t, updateReport(0.002, 0.25), updateBase(),
		"FAIL hit-rate cost 0.2500 of the read-only control (ceiling 0.10; 0.8800 -> 0.6600)")
}

func TestUpdateGateFailsOnUnanswered(t *testing.T) {
	bad := updateBase()
	bad.Update.Unanswered = 3
	expectFail(t, bad, updateBase(), "FAIL unanswered reads: read-only 0, update 3")
}

func TestUpdateGateRejectsMismatchedSpec(t *testing.T) {
	shrunk := updateBase()
	shrunk.Spec.Nodes = 5 // quietly shrunk tree
	expectFail(t, shrunk, updateBase(), "are different workloads")
}

func TestUpdateGateStalenessCeilingOverride(t *testing.T) {
	// The staleness ceiling is the report's own diffusion period: a cluster
	// diffusing every 200ms may serve 90ms-stale copies at p99.
	slow := updateReport(0.09, 0.01)
	slow.DiffusionPeriodS = 0.2
	expectPass(t, slow, updateBase())
}

// ---------------------------------------------------------------------------
// Invalidation-storm gate.

func stormReport(perWriteFetches, perWriteForwards float64) *workload.StormReport {
	sp := workload.StormSpec{Seed: 1}.WithDefaults()
	return &workload.StormReport{
		Schema: workload.StormSchema, Scenario: "invalidation-storm",
		Spec: sp, Nodes: 1 + sp.Subtrees*(1+sp.LeavesPer), Promotions: 1,
		Writes: int64(sp.Writes), BurstReads: int64(sp.Writes * sp.Clients),
		Responses:             2000,
		OriginFetches:         int64(perWriteFetches * float64(sp.Writes)),
		PerWriteOriginFetches: perWriteFetches,
		UpstreamForwards:      int64(perWriteForwards * float64(sp.Writes)),
		PerWriteForwards:      perWriteForwards,
		InvalidationsIn:       100, LeaseRefreshes: 90, Coalesced: 1200,
	}
}

func stormBase() *workload.StormReport { return stormReport(1.1, 11.6) }

func TestStormGatePasses(t *testing.T) {
	expectPass(t, stormReport(2.5, 20.0), stormBase())
}

func TestStormGateFailsOnHerd(t *testing.T) {
	// Per-write origin fetches near the client count: the leases collapsed nothing.
	expectFail(t, stormReport(110, 115), stormBase(),
		"FAIL 110.0 origin fetches/write over 3 subtrees (ceiling 12.0; 120 clients would herd)",
		"FAIL 115.0 upstream forwards/write vs 120 clients (ceiling 60.0)")
}

func TestStormGateFailsWithoutLeaseRefresh(t *testing.T) {
	dead := stormBase()
	dead.LeaseRefreshes = 0
	expectFail(t, dead, stormBase(), "FAIL lease refreshes 0")
}

func TestStormGateFailsWithoutPromotion(t *testing.T) {
	flat := stormBase()
	flat.Promotions = 0 // K=2 in the default spec: the forest must have fired
	expectFail(t, flat, stormBase(), "FAIL promotions 0 with K=2")
}

func TestStormGateRejectsMismatchedSpec(t *testing.T) {
	gentle := stormBase()
	gentle.Spec.Clients = 10 // quietly softened storm
	expectFail(t, gentle, stormBase(), "are different workloads")
}

// ---------------------------------------------------------------------------
// Hot-key gate.

func hotkeyReport(scaling, jainRatio float64) *workload.HotkeyReport {
	sp := workload.HotkeySpec{Seed: 1}.WithDefaults()
	run := func(k int, rps float64) workload.HotkeyRun {
		r := workload.HotkeyRun{
			K: k, Offered: 4000, Served: 3800, ThroughputRPS: rps, Jain: 0.9,
			PromotedAtS: -1, DemotedAtS: -1,
		}
		if k > 1 {
			r.Promotions, r.Demotions = 1, 1
			r.PromotedAtS, r.DemotedAtS = 8, 30
		}
		return r
	}
	return &workload.HotkeyReport{
		Schema: workload.HotkeySchema, Scenario: "hot-key", Spec: sp,
		Runs:      []workload.HotkeyRun{run(1, 100), run(4, 100*scaling)},
		ScalingX:  scaling,
		JainRatio: jainRatio,
	}
}

func hotkeyBase() *workload.HotkeyReport { return hotkeyReport(2.6, 0.95) }

func TestHotkeyGatePasses(t *testing.T) {
	expectPass(t, hotkeyBase(), hotkeyBase())
}

func TestHotkeyGateFailsBelowScalingFloor(t *testing.T) {
	expectFail(t, hotkeyReport(1.2, 0.95), hotkeyBase(), "FAIL widest forest scales 1.20x over k=1 (floor 2.00x)")
}

func TestHotkeyGateFailsWithoutRoundTrip(t *testing.T) {
	stuck := hotkeyBase()
	// The widest forest promoted but never demoted after the decay.
	stuck.Runs[1].Demotions = 0
	stuck.Runs[1].DemotedAtS = -1
	expectFail(t, stuck, hotkeyBase(),
		"FAIL k=4 promote/demote round trip (1 promotions, 0 demotions)",
		"FAIL k=4 promoted at 8.0s, demoted at -1.0s")
}

func TestHotkeyGateRejectsMismatchedSpec(t *testing.T) {
	soft := hotkeyBase()
	soft.Spec.PeakFactor = 2 // quietly gentler flash
	expectFail(t, soft, hotkeyBase(), "are different workloads")
}

// ---------------------------------------------------------------------------
// Session gate. The gated shape is two-sided — zero violations with tokens
// AND a strictly positive count without them — so both directions of
// softness fail.

func sessionReport(withViolations, withoutViolations int64) *workload.SessionReport {
	sp := workload.SessionSpec{Seed: 1}.WithDefaults()
	pass := func(violations int64) workload.SessionPass {
		return workload.SessionPass{
			Reads: int64(sp.Rounds * sp.ReadsPerWrite), Writes: int64(sp.Rounds),
			Responses:  int64(sp.Rounds * sp.ReadsPerWrite),
			Violations: violations, ViolationWindows: min(violations, int64(sp.Rounds)),
			SessionRefreshes: 400, LeaseRefreshes: 60,
		}
	}
	return &workload.SessionReport{
		Schema: workload.SessionSchema, Scenario: "session", Spec: sp,
		Nodes:            1 + sp.Subtrees*(1+sp.LeavesPer),
		WithTokens:       pass(withViolations),
		WithoutTokens:    pass(withoutViolations),
		DiffusionPeriodS: 0.04,
	}
}

func sessionBase() *workload.SessionReport { return sessionReport(0, 180) }

func TestSessionGatePasses(t *testing.T) {
	expectPass(t, sessionReport(0, 205), sessionBase())
}

func TestSessionGateFailsOnTokenViolation(t *testing.T) {
	// Even a single violation with tokens on the wire breaks the guarantee.
	expectFail(t, sessionReport(1, 180), sessionBase(), "FAIL read-my-writes violations with tokens 1")
}

func TestSessionGateFailsOnSoftSchedule(t *testing.T) {
	// Zero violations WITHOUT tokens means the schedule stopped provoking
	// the race — the token arm's zero proves nothing.
	expectFail(t, sessionReport(0, 0), sessionBase(), "FAIL read-my-writes violations without tokens 0 over 0 rounds")
}

func TestSessionGateFailsOnUnexercisedGate(t *testing.T) {
	idle := sessionBase()
	idle.WithTokens.SessionRefreshes = 0
	expectFail(t, idle, sessionBase(), "FAIL session refreshes 0")
}

func TestSessionGateFailsOnUnanswered(t *testing.T) {
	starved := sessionBase()
	starved.WithTokens.Unanswered = 2
	expectFail(t, starved, sessionBase(), "FAIL unanswered reads: with tokens 2, without 0")
}

func TestSessionGateRejectsMismatchedSpec(t *testing.T) {
	soft := sessionBase()
	soft.Spec.Rounds = 5 // quietly shrunk schedule
	expectFail(t, soft, sessionBase(), "are different workloads")
}

// ---------------------------------------------------------------------------
// Swarm gate: synthetic reports walk each threshold without launching any
// processes.

func swarmReport() *workload.SwarmReport {
	sp := workload.SwarmSpec{Seed: 7}.WithDefaults()
	return &workload.SwarmReport{
		Schema: workload.SwarmSchema, Scenario: "swarm", Spec: sp,
		Nodes: 1 + sp.Racks*sp.RackNodes, Depth: sp.RackDepth + 1,
		RackKilled: []int{1, 2, 3},
		Offered:    4700, Rerouted: 280, Responses: 4650, LostInFlight: 50,
		Availability:  0.989,
		RepairSeconds: 0.3, ReabsorbSeconds: 0.9,
		Reconnects: 0, ReclaimedDuty: 1300, AbsorbedDuty: 700,
		WarmDocs: 100,
	}
}

func TestSwarmGatePasses(t *testing.T) {
	expectPass(t, swarmReport(), swarmReport())
}

func TestSwarmGateFailsOnAvailability(t *testing.T) {
	bad := swarmReport()
	bad.Availability = 0.90
	expectFail(t, bad, swarmReport(), "FAIL availability 0.9000 with rack 0 killed (floor 0.9500; 280 rerouted, 50 lost in flight)")
}

func TestSwarmGateFailsOnColdRestart(t *testing.T) {
	bad := swarmReport()
	bad.WarmDocs = 0 // re-exec came back cold: journals recovered nothing
	expectFail(t, bad, swarmReport(), "FAIL warm docs 0")
}

func TestSwarmGateFailsOnIncompleteReabsorb(t *testing.T) {
	bad := swarmReport()
	bad.ReabsorbSeconds = -1
	expectFail(t, bad, swarmReport(), "FAIL tree whole -1.00s after the rack re-exec")
}

func TestSwarmGateFailsOnDirtyHarness(t *testing.T) {
	for _, tc := range []struct {
		mutate func(r *workload.SwarmReport)
		want   string
	}{
		{func(r *workload.SwarmReport) { r.FailedRevives = 1 }, "FAIL failed revives 1"},
		{func(r *workload.SwarmReport) { r.ForcedTeardowns = 2 }, "FAIL forced teardowns 2"},
		{func(r *workload.SwarmReport) { r.FinalOrphaned = 1 }, "FAIL orphaned at end 1"},
		{func(r *workload.SwarmReport) { r.ScrapeErrors = int64(r.Nodes) + 1 }, "FAIL scrape errors 102 over 101 nodes"},
	} {
		bad := swarmReport()
		tc.mutate(bad)
		expectFail(t, bad, swarmReport(), tc.want)
	}
}

func TestSwarmGateRejectsSpecMismatch(t *testing.T) {
	shrunk := swarmReport()
	shrunk.Spec.Racks = 2 // half the swarm is not the gated scenario
	expectFail(t, shrunk, swarmReport(), "are different workloads")
}

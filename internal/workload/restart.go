package workload

// Restart-warmth scenario: what does the disk persistence tier buy when
// killed nodes come back? Two passes replay the identical chaos workload —
// same tree, catalog, schedule, victims. The cold pass restarts victims
// with empty caches (the committed chaos baseline's behavior); the warm
// pass gives every node a data dir, so a revived node replays its journal,
// re-admits its held copies and re-announces their duty as reclaim frames.
// The gated comparison is post-restart availability (answered share of the
// schedule offered after the revival instant) and time-to-reabsorb: warm
// must beat the committed cold figures, and the warm pass must actually
// recover documents (warm_docs > 0) — otherwise the tier silently did
// nothing. Wall-clock measurement: NOT deterministic; RestartReport.Checks
// applies thresholds, not byte equality.

import (
	"fmt"
	"os"
)

// RestartSchema identifies restart-warmth reports.
const RestartSchema = "webwave-restart/v1"

// RestartSpec parameterizes the restart scenario: the chaos workload plus
// the two tier budgets the warm pass runs under. CacheBudgetBytes bounds
// memory on BOTH passes (a warm restart is only interesting when the cache
// is the thing being rebuilt); DiskBudgetBytes bounds the warm pass's disk
// tier (0 = unlimited).
type RestartSpec struct {
	ChaosSpec
	CacheBudgetBytes int64 `json:"cache_budget_bytes"`
	DiskBudgetBytes  int64 `json:"disk_budget_bytes"`
}

// WithDefaults fills unset fields.
func (s RestartSpec) WithDefaults() RestartSpec {
	s.ChaosSpec = s.ChaosSpec.WithDefaults()
	if s.CacheBudgetBytes <= 0 {
		s.CacheBudgetBytes = 16 << 10
	}
	return s
}

// RestartPassReport is one pass's figures.
type RestartPassReport struct {
	Offered   int64 `json:"offered"`
	Responses int64 `json:"responses"`
	// Availability covers the whole run; PostRestartAvailability only the
	// schedule offered after the revival instant — the window where a warm
	// cache shows up (capped at 1: a draining backlog can answer more than
	// the tail offered).
	Availability            float64 `json:"availability"`
	PostRestartAvailability float64 `json:"post_restart_availability"`
	ReabsorbSeconds         float64 `json:"reabsorb_seconds"`
	Reconnects              int64   `json:"reconnects"`
	FailedRevives           int64   `json:"failed_revives"`
	// WarmDocs sums documents recovered from journals across the cluster
	// (0 on the cold pass by construction); DiskHits counts serves from the
	// disk tier.
	WarmDocs int64 `json:"warm_docs"`
	DiskHits int64 `json:"disk_hits"`
}

// RestartReport is the restart-scenario JSON document.
type RestartReport struct {
	Schema   string            `json:"schema"`
	Scenario string            `json:"scenario"`
	Spec     RestartSpec       `json:"spec"`
	Killed   []int             `json:"killed"`
	Cold     RestartPassReport `json:"cold"`
	Warm     RestartPassReport `json:"warm"`
}

// Restart gate thresholds.
const (
	restartMinWarmAvailability = 0.981 // warm pass, schedule offered after the revival
	restartMaxWarmReabsorb     = 0.06  // seconds; relaxed when cold is slower (see Checks)
)

// Checks gates the warm-restart floor. The warm pass must answer the
// post-revival schedule, reabsorb promptly, actually recover documents
// from its journals (otherwise it degenerates to a second cold run), and
// both passes must revive every victim.
func (r *RestartReport) Checks(base *RestartReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	// Reabsorb is wall-clock AND quantized by the failure detector: any
	// single measurement lands anywhere inside one detection window
	// (HeartbeatMisses silent periods), so the absolute ceiling alone would
	// flake. A warm pass within one detection window of the same report's
	// cold pass also passes — that covers both detector quantization and a
	// loaded CI runner slowing the passes alike — while a genuinely broken
	// warm path overshoots the window. -1 (never repaired) fails both arms.
	hb := r.Spec.HeartbeatMS
	if hb <= 0 {
		hb = 40 // ChaosSpec.WithDefaults
	}
	detectWindow := 3 * float64(hb) / 1000 // default HeartbeatMisses
	warm, cold := r.Warm, r.Cold
	warmReabsorbOK := warm.ReabsorbSeconds >= 0 &&
		(warm.ReabsorbSeconds <= restartMaxWarmReabsorb ||
			(cold.ReabsorbSeconds >= 0 && warm.ReabsorbSeconds <= cold.ReabsorbSeconds+detectWindow))
	return []Check{
		check(warm.PostRestartAvailability >= restartMinWarmAvailability,
			"warm post-restart availability %.4f (floor %.4f; cold %.4f)",
			warm.PostRestartAvailability, restartMinWarmAvailability, cold.PostRestartAvailability),
		check(warmReabsorbOK, "warm reabsorb %.2fs (ceiling %.2fs, cold %.2fs + %.2fs detection window)",
			warm.ReabsorbSeconds, restartMaxWarmReabsorb, cold.ReabsorbSeconds, detectWindow),
		check(warm.WarmDocs >= 1,
			"warm docs recovered %d (journal replay must restore something)", warm.WarmDocs),
		check(cold.FailedRevives == 0 && warm.FailedRevives == 0,
			"failed revives cold %d warm %d (every victim must come back)",
			cold.FailedRevives, warm.FailedRevives),
	}, nil
}

// RunRestart executes the cold and warm passes and assembles the report.
// The log callback (may be nil) receives one line per pass.
func RunRestart(sp RestartSpec, logf Logf) (*RestartReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario restart: %d nodes, %d docs, %.0f req/s for %.1fs; cache budget %d B, disk budget %d B; killing %.0f%% of interior nodes at %.1fs for %.1fs",
		sp.Nodes, sp.NumDocs, sp.TotalRate, sp.Duration, sp.CacheBudgetBytes, sp.DiskBudgetBytes,
		sp.KillFraction*100, sp.KillAt, sp.Downtime)
	t, docs, sched, killed, err := chaosSetup(sp.ChaosSpec)
	if err != nil {
		return nil, err
	}

	cold, err := chaosRun(sp.ChaosSpec, t, docs, sched, killed, chaosOpts{
		cacheBudget: sp.CacheBudgetBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("restart: cold pass: %w", err)
	}
	coldRep := restartPassReport(cold)
	logf("  cold: avail %.4f, post-restart %.4f, reabsorb %.2fs",
		coldRep.Availability, coldRep.PostRestartAvailability, coldRep.ReabsorbSeconds)

	dataDir, err := os.MkdirTemp("", "webwave-restart-")
	if err != nil {
		return nil, fmt.Errorf("restart: data dir: %w", err)
	}
	defer os.RemoveAll(dataDir)
	warm, err := chaosRun(sp.ChaosSpec, t, docs, sched, killed, chaosOpts{
		dataDir:     dataDir,
		cacheBudget: sp.CacheBudgetBytes,
		diskBudget:  sp.DiskBudgetBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("restart: warm pass: %w", err)
	}
	warmRep := restartPassReport(warm)
	logf("  warm: avail %.4f, post-restart %.4f, reabsorb %.2fs, warm docs %d, disk hits %d, failed revives %d (cold %d)",
		warmRep.Availability, warmRep.PostRestartAvailability, warmRep.ReabsorbSeconds,
		warmRep.WarmDocs, warmRep.DiskHits, warmRep.FailedRevives, coldRep.FailedRevives)

	return &RestartReport{
		Schema: RestartSchema, Scenario: "restart", Spec: sp, Killed: killed,
		Cold: coldRep, Warm: warmRep,
	}, nil
}

func restartPassReport(p *chaosPass) RestartPassReport {
	rep := RestartPassReport{
		Offered:         p.offered,
		Responses:       p.responses,
		Availability:    round6(availability(p)),
		ReabsorbSeconds: round6(p.reabsorb),
		Reconnects:      p.reconnects,
		FailedRevives:   p.failedRevives,
		WarmDocs:        p.warmDocs,
		DiskHits:        p.diskHits,
	}
	if p.tailOffered > 0 {
		pra := float64(p.responses-p.respAtRestart) / float64(p.tailOffered)
		if pra > 1 {
			pra = 1
		}
		rep.PostRestartAvailability = round6(pra)
	}
	return rep
}

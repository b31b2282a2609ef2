package workload

// Chaos scenario: does the load-balancing wave survive node churn? A live
// in-memory cluster runs with the full fault-tolerance stack on (ancestor
// failover + heartbeats), a Poisson schedule plays against it, and midway
// through a scheduled fraction of the tree's interior nodes is killed and
// later restarted. The report captures the three figures that matter for a
// repairing system — availability (served/offered), time-to-reabsorb (kill
// until every survivor is orphan-free with its duty re-announced), and
// post-repair Jain fairness — alongside a no-failure control run of the
// identical schedule, so the Jain figure is judged as a ratio rather than
// an absolute. Wall-clock measurement: NOT deterministic; the CI gate
// (ChaosReport.Checks) applies thresholds, not byte equality.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/stats"
	"webwave/internal/trace"
	"webwave/internal/tree"
)

// ChaosSchema identifies chaos reports.
const ChaosSchema = "webwave-chaos/v1"

// ChaosSpec parameterizes the chaos scenario.
type ChaosSpec struct {
	Seed      int64   `json:"seed"`
	Nodes     int     `json:"nodes"`      // tree size; default 31
	NumDocs   int     `json:"num_docs"`   // catalog size; default 48
	TotalRate float64 `json:"total_rate"` // offered req/s; default 600
	Duration  float64 `json:"duration_s"` // schedule length; default 12
	// KillFraction of the tree's interior (non-root, non-leaf) nodes is
	// killed at KillAt and restarted Downtime seconds later. Default 0.10 —
	// the acceptance point the baseline gates.
	KillFraction float64 `json:"kill_fraction"`
	KillAt       float64 `json:"kill_at_s"`    // default Duration/3
	Downtime     float64 `json:"downtime_s"`   // default Duration/4
	HeartbeatMS  int     `json:"heartbeat_ms"` // failure-detector period; default 40
}

// WithDefaults fills unset fields.
func (s ChaosSpec) WithDefaults() ChaosSpec {
	if s.Nodes <= 0 {
		s.Nodes = 31
	}
	if s.NumDocs <= 0 {
		s.NumDocs = 48
	}
	if s.TotalRate <= 0 {
		s.TotalRate = 600
	}
	if s.Duration <= 0 {
		s.Duration = 12
	}
	if s.KillFraction <= 0 {
		s.KillFraction = 0.10
	}
	if s.KillAt <= 0 {
		s.KillAt = s.Duration / 3
	}
	if s.Downtime <= 0 {
		s.Downtime = s.Duration / 4
	}
	if s.HeartbeatMS <= 0 {
		s.HeartbeatMS = 40
	}
	return s
}

// ChaosReport is the chaos-scenario JSON document.
type ChaosReport struct {
	Schema   string    `json:"schema"`
	Scenario string    `json:"scenario"`
	Spec     ChaosSpec `json:"spec"`
	Killed   []int     `json:"killed"` // interior nodes killed mid-run

	Offered       int64 `json:"offered"`        // schedule entries
	FailedInjects int64 `json:"failed_injects"` // entered a dead node
	Responses     int64 `json:"responses"`
	// Availability is responses/offered after the drain — requests lost to
	// dead entry nodes, dead subtrees and repair windows all count against
	// it.
	Availability float64 `json:"availability"`
	// ReabsorbSeconds measures kill → repaired: every surviving stranded
	// child has failed over (expected reconnect count reached) and no live
	// node is orphaned. -1 when repair never completed within the run.
	ReabsorbSeconds float64 `json:"reabsorb_seconds"`
	// PostRepairJain is Jain's fairness over per-node serves in the window
	// from restart+settle to end of run; NoFailJain is the same window of
	// the control run; JainRatio is their quotient (the gated figure).
	PostRepairJain float64 `json:"post_repair_jain"`
	NoFailJain     float64 `json:"no_fail_jain"`
	JainRatio      float64 `json:"jain_ratio"`

	Reconnects      int64   `json:"reconnects"`
	ReclaimedDuty   float64 `json:"reclaimed_duty"`
	AbsorbedDuty    float64 `json:"absorbed_duty"`
	HeartbeatMisses int64   `json:"heartbeat_misses"`
	FinalOrphaned   int     `json:"final_orphaned"`
	// FailedRevives counts killed nodes whose RestartNode errored — nodes
	// the run meant to bring back but could not. A silent revive failure
	// would depress availability with no visible cause, so the count is
	// reported (and gated to zero) rather than swallowed.
	FailedRevives int64 `json:"failed_revives"`

	ControlAvailability float64 `json:"control_availability"`
}

// chaosPass is one cluster run's raw outcome.
type chaosPass struct {
	offered, failed, responses int64
	tailJain                   float64
	reabsorb                   float64
	reconnects                 int64
	reclaimed, absorbed        float64
	heartbeatMisses            int64
	finalOrphaned              int
	failedRevives              int64
	// Restart-warmth figures: responses already in at restart time, and the
	// schedule entries offered from restart to end — their quotient is the
	// post-restart availability the warm-vs-cold comparison gates.
	respAtRestart int64
	tailOffered   int64
	warmDocs      int64
	diskHits      int64
}

// chaosOpts is the optional cluster configuration a chaos-style run may
// carry: a per-node data dir (enabling warm restarts) and the two tier
// budgets. The zero value is the memory-only cluster RunChaos always ran.
type chaosOpts struct {
	dataDir                 string
	cacheBudget, diskBudget int64
}

// Chaos gate thresholds.
const (
	chaosMinAvailability = 0.95 // served/offered under the scheduled kills
	chaosMinJainRatio    = 0.90 // post-repair Jain relative to the no-failure run
)

// Checks gates the fault-tolerance floor. The baseline pins every spec
// field — including the kill schedule and the detector period, since a
// faster heartbeat or gentler downtime would ease the scenario as surely
// as a smaller tree. Thresholds rather than byte comparison because the
// run is wall-clock.
func (r *ChaosReport) Checks(base *ChaosReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	return []Check{
		check(r.Availability >= chaosMinAvailability,
			"availability %.4f under %d kills (floor %.4f)", r.Availability, len(r.Killed), chaosMinAvailability),
		check(r.JainRatio >= chaosMinJainRatio,
			"post-repair jain %.3f = %.3f of the no-failure run (floor %.2f)",
			r.PostRepairJain, r.JainRatio, chaosMinJainRatio),
		check(r.Reconnects >= 1, "reconnects %d (failover must have fired)", r.Reconnects),
		check(r.FinalOrphaned == 0, "orphaned at end %d (tree must be repaired)", r.FinalOrphaned),
		check(r.ReabsorbSeconds >= 0, "reabsorb %.2fs (repair must complete within the run)", r.ReabsorbSeconds),
		check(r.FailedRevives == 0, "failed revives %d (every scheduled restart must succeed)", r.FailedRevives),
	}, nil
}

// RunChaos executes the control pass and the chaos pass on the identical
// tree, catalog and schedule, and assembles the report. The log callback
// (may be nil) receives one line per pass.
func RunChaos(sp ChaosSpec, logf Logf) (*ChaosReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario chaos: %d nodes, %d docs, %.0f req/s for %.1fs; killing %.0f%% of interior nodes at %.1fs for %.1fs (heartbeat %dms)",
		sp.Nodes, sp.NumDocs, sp.TotalRate, sp.Duration, sp.KillFraction*100, sp.KillAt, sp.Downtime, sp.HeartbeatMS)
	t, docs, sched, killed, err := chaosSetup(sp)
	if err != nil {
		return nil, err
	}

	control, err := chaosRun(sp, t, docs, sched, nil, chaosOpts{})
	if err != nil {
		return nil, fmt.Errorf("chaos: control pass: %w", err)
	}
	logf("  control: %d/%d answered (%.4f), tail jain %.3f",
		control.responses, control.offered,
		availability(control), control.tailJain)
	chaos, err := chaosRun(sp, t, docs, sched, killed, chaosOpts{})
	if err != nil {
		return nil, fmt.Errorf("chaos: failure pass: %w", err)
	}
	logf("  chaos:   %d/%d answered (%.4f), tail jain %.3f, reabsorb %.2fs, reconnects %d, killed %v",
		chaos.responses, chaos.offered, availability(chaos),
		chaos.tailJain, chaos.reabsorb, chaos.reconnects, killed)

	rep := &ChaosReport{
		Schema: ChaosSchema, Scenario: "chaos", Spec: sp, Killed: killed,
		Offered:             chaos.offered,
		FailedInjects:       chaos.failed,
		Responses:           chaos.responses,
		Availability:        round6(availability(chaos)),
		ReabsorbSeconds:     round6(chaos.reabsorb),
		PostRepairJain:      round6(chaos.tailJain),
		NoFailJain:          round6(control.tailJain),
		Reconnects:          chaos.reconnects,
		ReclaimedDuty:       round6(chaos.reclaimed),
		AbsorbedDuty:        round6(chaos.absorbed),
		HeartbeatMisses:     chaos.heartbeatMisses,
		FinalOrphaned:       chaos.finalOrphaned,
		FailedRevives:       chaos.failedRevives,
		ControlAvailability: round6(availability(control)),
	}
	if control.tailJain > 0 {
		rep.JainRatio = round6(chaos.tailJain / control.tailJain)
	}
	logf("  jain ratio %.3f, reclaimed duty %.1f req/s, absorbed duty %.1f req/s, heartbeat misses %d, orphaned at end %d",
		rep.JainRatio, rep.ReclaimedDuty, rep.AbsorbedDuty, rep.HeartbeatMisses, rep.FinalOrphaned)
	return rep, nil
}

// chaosSetup builds the deterministic fixtures every chaos-style scenario
// shares: the tree, the document catalog, the Poisson schedule, and the
// interior victim set — all derived from sp.Seed, so two passes (control vs
// chaos, cold vs warm) replay the identical workload.
func chaosSetup(sp ChaosSpec) (*tree.Tree, map[core.DocID][]byte, []trace.Request, []int, error) {
	rng := rand.New(rand.NewSource(sp.Seed))
	t, err := tree.RandomBounded(sp.Nodes, 3, rng)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("chaos: tree: %w", err)
	}
	demand, err := trace.ZipfDemand(t, trace.ZipfDemandConfig{
		NumDocs: sp.NumDocs, Skew: 1.0, TotalRate: sp.TotalRate,
	}, rng)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("chaos: demand: %w", err)
	}
	docs := make(map[core.DocID][]byte, len(demand.Docs))
	for _, d := range demand.Docs {
		docs[d.ID] = []byte("webwave chaos document body: " + string(d.ID))
	}
	sched := trace.PoissonSchedule(demand, sp.Duration, rng)

	// Interior victims, picked deterministically from the seed.
	var interior []int
	for v := 0; v < t.Len(); v++ {
		if v != t.Root() && !t.IsLeaf(v) {
			interior = append(interior, v)
		}
	}
	nKill := int(sp.KillFraction*float64(len(interior)) + 0.5)
	if nKill < 1 {
		nKill = 1
	}
	if nKill > len(interior) {
		nKill = len(interior)
	}
	rng.Shuffle(len(interior), func(i, j int) { interior[i], interior[j] = interior[j], interior[i] })
	killed := append([]int(nil), interior[:nKill]...)
	sort.Ints(killed)
	return t, docs, sched, killed, nil
}

func availability(p *chaosPass) float64 {
	if p.offered == 0 {
		return 0
	}
	return float64(p.responses) / float64(p.offered)
}

// chaosRun plays the schedule against a fresh cluster; killed nil means the
// no-failure control pass.
func chaosRun(sp ChaosSpec, t *tree.Tree, docs map[core.DocID][]byte, sched []trace.Request, killed []int, opt chaosOpts) (*chaosPass, error) {
	c, err := cluster.New(t, docs, cluster.Config{
		GossipPeriod:     20 * time.Millisecond,
		DiffusionPeriod:  40 * time.Millisecond,
		Window:           400 * time.Millisecond,
		Tunneling:        true,
		Ancestors:        true,
		HeartbeatPeriod:  time.Duration(sp.HeartbeatMS) * time.Millisecond,
		DataDir:          opt.dataDir,
		CacheBudgetBytes: opt.cacheBudget,
		DiskBudgetBytes:  opt.diskBudget,
	})
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	pass := &chaosPass{reabsorb: -1}
	start := time.Now()
	var wg sync.WaitGroup

	// Tail-window baseline: per-node serves are snapshotted once repair
	// should be done (restart + one window of settling) and differenced
	// against the end-of-run counts; the control pass uses the same instant
	// so the two Jain figures cover the same schedule slice.
	tailFrom := sp.KillAt + sp.Downtime + 1.0
	var tailBase map[int]int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(dur(tailFrom))))
		tailBase = c.ServedBy()
	}()

	if len(killed) > 0 {
		// Expected repairs: surviving children stranded by the kills.
		expect := 0
		deadSet := make(map[int]bool, len(killed))
		for _, v := range killed {
			deadSet[v] = true
		}
		for _, v := range killed {
			for _, ch := range t.Children(v) {
				if !deadSet[ch] {
					expect++
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(dur(sp.KillAt))))
			killT := time.Now()
			for _, v := range killed {
				c.KillNode(v)
			}
			// Poll the survivors until the tree is whole again.
			deadlineT := start.Add(dur(sp.Duration + 5))
			for time.Now().Before(deadlineT) {
				orphans, reconnects := 0, int64(0)
				sts, err := c.Stats()
				if err == nil {
					for _, st := range sts {
						if st != nil {
							orphans += st.Orphaned
							reconnects += st.Reconnects
						}
					}
					if orphans == 0 && reconnects >= int64(expect) {
						pass.reabsorb = time.Since(killT).Seconds()
						return
					}
				}
				time.Sleep(50 * time.Millisecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(dur(sp.KillAt + sp.Downtime))))
			pass.respAtRestart = c.Responses()
			for _, v := range killed {
				if err := c.RestartNode(v); err != nil {
					// A node that should be back but is not silently depresses
					// availability; count it so the report (and gate) sees it.
					pass.failedRevives++
				}
			}
		}()
	}

	// Open-loop playback at schedule times; injections into dead entry
	// nodes fail and count against availability.
	restartAt := sp.KillAt + sp.Downtime
	for i := range sched {
		if wait := time.Until(start.Add(dur(sched[i].Time))); wait > 0 {
			time.Sleep(wait)
		}
		pass.offered++
		if sched[i].Time >= restartAt {
			pass.tailOffered++
		}
		if err := c.Inject(sched[i].Origin, sched[i].Doc); err != nil {
			pass.failed++
		}
	}
	wg.Wait()
	c.Drain(5 * time.Second)

	tailEnd := c.ServedBy()
	loads := make([]float64, t.Len())
	for v := range loads {
		loads[v] = float64(tailEnd[v] - tailBase[v])
	}
	pass.tailJain = stats.JainIndex(loads)
	pass.responses = c.Responses()
	if sts, err := c.Stats(); err == nil {
		for _, st := range sts {
			if st == nil {
				continue
			}
			pass.reconnects += st.Reconnects
			pass.reclaimed += st.ReclaimedDuty
			pass.absorbed += st.AbsorbedDuty
			pass.heartbeatMisses += st.HeartbeatMisses
			pass.finalOrphaned += st.Orphaned
			pass.warmDocs += st.WarmDocs
			pass.diskHits += st.DiskHits
		}
	}
	return pass, nil
}

func dur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

package workload

// Swarm scenario: the chaos experiment scaled out to real operating-system
// processes. A rack-structured routing tree — root, then R racks of N nodes
// each, every rack a spine-shaped subtree — is launched as one process per
// node over real TCP (cluster.ProcCluster), a Poisson schedule plays
// against it, and midway through an entire rack is SIGKILLed at once: the
// failure mode a power bus or top-of-rack switch presents, where a whole
// subtree vanishes between two heartbeats. The rack is later re-exec'd onto
// its old addresses and DataDirs, so the revived processes come back warm
// from their journals and re-announce the duty they held.
//
// Requests whose entry node is dead are rerouted to the nearest live
// ancestor (the gateway remap a real client population performs) and
// counted, so availability measures what the surviving tree actually
// dropped — in-flight requests lost inside the dying rack — rather than
// the runner's choice of entry points. Wall-clock measurement: NOT
// deterministic; the CI gate (SwarmReport.Checks) applies thresholds, not
// byte equality.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/trace"
	"webwave/internal/tree"
)

// SwarmSchema identifies swarm reports.
const SwarmSchema = "webwave-swarm/v1"

// SwarmSpec parameterizes the swarm scenario.
type SwarmSpec struct {
	Seed int64 `json:"seed"`
	// Racks of RackNodes nodes each hang under the root; each rack is a
	// spine of RackDepth nodes with the rest attached round-robin,
	// deepest-first, so the tree's depth is RackDepth+1. Defaults 4×25 with
	// spine 5 — a 101-process tree of depth 6.
	Racks     int     `json:"racks"`
	RackNodes int     `json:"rack_nodes"`
	RackDepth int     `json:"rack_depth"`
	NumDocs   int     `json:"num_docs"`   // catalog size; default 32
	DocBytes  int     `json:"doc_bytes"`  // body bytes per document; default 512
	TotalRate float64 `json:"total_rate"` // offered req/s; default 400
	Duration  float64 `json:"duration_s"` // schedule length; default 12
	// KillRack names the rack (0-based) SIGKILLed at KillAt and re-exec'd
	// Downtime seconds later; -1 disables the failure.
	KillRack    int     `json:"kill_rack"`
	KillAt      float64 `json:"kill_at_s"`    // default Duration/3
	Downtime    float64 `json:"downtime_s"`   // default Duration/4
	HeartbeatMS int     `json:"heartbeat_ms"` // failure-detector period; default 50
}

// WithDefaults fills unset fields.
func (s SwarmSpec) WithDefaults() SwarmSpec {
	if s.Racks <= 0 {
		s.Racks = 4
	}
	if s.RackNodes <= 0 {
		s.RackNodes = 25
	}
	if s.RackDepth <= 0 {
		s.RackDepth = 5
	}
	if s.RackDepth > s.RackNodes {
		s.RackDepth = s.RackNodes
	}
	if s.NumDocs <= 0 {
		s.NumDocs = 32
	}
	if s.DocBytes <= 0 {
		s.DocBytes = 512
	}
	if s.TotalRate <= 0 {
		s.TotalRate = 400
	}
	if s.Duration <= 0 {
		s.Duration = 12
	}
	if s.KillAt <= 0 {
		s.KillAt = s.Duration / 3
	}
	if s.Downtime <= 0 {
		s.Downtime = s.Duration / 4
	}
	if s.HeartbeatMS <= 0 {
		// A hundred processes sharing a few cores cannot all wake every
		// 50ms; big swarms default to a slower detector (the protocol
		// periods scale alongside, see swarmPeriods).
		if s.Racks*s.RackNodes >= 64 {
			s.HeartbeatMS = 200
		} else {
			s.HeartbeatMS = 50
		}
	}
	return s
}

// swarmPeriods picks the gossip/diffusion/window periods for a swarm of n
// processes. The in-process cluster runs 20/40/400ms; a hundred OS
// processes ticking that fast saturate the host's cores with timer wakeups
// and starve the actual request path, so big swarms run the paper's
// periods at a humane scale instead.
func swarmPeriods(n int) (gossip, diffusion, window time.Duration) {
	if n >= 64 {
		return 100 * time.Millisecond, 200 * time.Millisecond, time.Second
	}
	return 20 * time.Millisecond, 40 * time.Millisecond, 400 * time.Millisecond
}

// SwarmTree builds the rack-structured routing tree: node 0 is the root;
// rack r owns the contiguous ids [1+r*rackNodes, 1+(r+1)*rackNodes). Each
// rack's first rackDepth nodes form a spine hanging off the root, and the
// remaining nodes attach round-robin to the spine deepest-first — giving
// every rack leaf-heavy weight at the bottom, where reabsorption is
// hardest.
func SwarmTree(racks, rackNodes, rackDepth int) (*tree.Tree, error) {
	parents := make([]int, 1+racks*rackNodes)
	parents[0] = -1
	for r := 0; r < racks; r++ {
		base := 1 + r*rackNodes
		for i := 0; i < rackNodes; i++ {
			v := base + i
			switch {
			case i == 0:
				parents[v] = 0 // rack head
			case i < rackDepth:
				parents[v] = v - 1 // spine chain
			default:
				j := i - rackDepth
				parents[v] = base + (rackDepth - 1) - (j % rackDepth)
			}
		}
	}
	return tree.FromParents(parents)
}

// SwarmRackNodes returns rack r's node ids (ascending: head, spine, extras —
// also a parents-before-children restart order).
func SwarmRackNodes(sp SwarmSpec, r int) []int {
	base := 1 + r*sp.RackNodes
	out := make([]int, sp.RackNodes)
	for i := range out {
		out[i] = base + i
	}
	return out
}

// SwarmReport is the swarm-scenario JSON document.
type SwarmReport struct {
	Schema   string    `json:"schema"`
	Scenario string    `json:"scenario"`
	Spec     SwarmSpec `json:"spec"`
	Nodes    int       `json:"nodes"` // processes launched
	Depth    int       `json:"depth"` // tree height (root = depth 0)

	RackKilled []int `json:"rack_killed,omitempty"` // node ids SIGKILLed

	Offered int64 `json:"offered"` // schedule entries
	// Rerouted counts requests whose entry node was dead and that entered
	// at the nearest live ancestor instead; FailedInjects counts requests
	// that could not enter the tree at all.
	Rerouted      int64 `json:"rerouted"`
	FailedInjects int64 `json:"failed_injects"`
	Responses     int64 `json:"responses"`
	// LostInFlight is the drain residue: requests that entered the tree and
	// were never answered — in-flight state that died inside the rack.
	LostInFlight int64 `json:"lost_in_flight"`
	// Availability is responses/offered after the drain.
	Availability float64 `json:"availability"`

	// RepairSeconds measures kill → the surviving tree orphan-free; a whole
	// rack is a complete subtree, so this is the detector latency, not a
	// failover storm. ReabsorbSeconds measures restart → the tree whole
	// again: every process live, every non-root node re-attached, nobody
	// orphaned. Both are -1 when never reached within the run.
	RepairSeconds   float64 `json:"repair_seconds"`
	ReabsorbSeconds float64 `json:"reabsorb_seconds"`

	Reconnects      int64   `json:"reconnects"`
	ReclaimedDuty   float64 `json:"reclaimed_duty"`
	AbsorbedDuty    float64 `json:"absorbed_duty"`
	HeartbeatMisses int64   `json:"heartbeat_misses"`
	// WarmDocs totals the documents revived processes recovered from their
	// journals — nonzero proves the re-exec was warm, not a cold cache.
	WarmDocs int64 `json:"warm_docs"`

	// Harness health: stats scrapes that timed out or failed, revives that
	// errored, and node processes that had to be SIGKILLed at teardown
	// because they did not drain. All gated to zero (scrape errors
	// leniently) — a passing run is also a clean run.
	ScrapeErrors    int64 `json:"scrape_errors"`
	FinalOrphaned   int   `json:"final_orphaned"`
	FailedRevives   int64 `json:"failed_revives"`
	ForcedTeardowns int64 `json:"forced_teardowns"`
}

// swarmMinAvailability is the served/offered floor under the whole-rack kill.
const swarmMinAvailability = 0.95

// Checks gates the scale-out floor. The baseline pins the workload shape —
// racks, rack size, spine depth, rate, kill schedule, detector period — so
// the scenario cannot be quietly shrunk until it passes; the report must
// then show the swarm surviving a whole-rack SIGKILL: availability above
// the floor, the tree repaired and re-whole within the run, duty actually
// moving, the re-exec provably warm, and the harness itself healthy.
func (r *SwarmReport) Checks(base *SwarmReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	sp := r.Spec
	out := []Check{
		check(r.Nodes == 1+sp.Racks*sp.RackNodes,
			"%d node processes launched (spec says %d)", r.Nodes, 1+sp.Racks*sp.RackNodes),
		check(r.Depth == sp.RackDepth+1, "tree depth %d (spec spine %d + root)", r.Depth, sp.RackDepth),
		check(r.Availability >= swarmMinAvailability,
			"availability %.4f with rack %d killed (floor %.4f; %d rerouted, %d lost in flight)",
			r.Availability, sp.KillRack, swarmMinAvailability, r.Rerouted, r.LostInFlight),
	}
	if sp.KillRack >= 0 {
		out = append(out,
			check(r.RepairSeconds >= 0,
				"survivors repaired %.2fs after the rack kill (must complete)", r.RepairSeconds),
			check(r.ReabsorbSeconds >= 0,
				"tree whole %.2fs after the rack re-exec (must complete)", r.ReabsorbSeconds),
			check(r.ReclaimedDuty+r.AbsorbedDuty > 0,
				"duty moved: %.1f req/s reclaimed + %.1f req/s absorbed (a silent kill moves nothing)",
				r.ReclaimedDuty, r.AbsorbedDuty),
			check(r.WarmDocs >= 1,
				"warm docs %d (the re-exec'd rack must recover from its journals)", r.WarmDocs))
	}
	// Scrapes are allowed occasional timeouts on a loaded host — that is
	// what the partial-results design is for — but persistent failure means
	// the stats path itself is broken.
	return append(out,
		check(r.FinalOrphaned == 0, "orphaned at end %d (tree must be repaired)", r.FinalOrphaned),
		check(r.FailedRevives == 0, "failed revives %d (every re-exec must come back)", r.FailedRevives),
		check(r.ForcedTeardowns == 0,
			"forced teardowns %d (every process must drain on SIGTERM)", r.ForcedTeardowns),
		check(r.ScrapeErrors <= int64(r.Nodes),
			"scrape errors %d over %d nodes (ceiling one per node)", r.ScrapeErrors, r.Nodes)), nil
}

// SwarmOptions carries the process-level knobs that are deployment detail,
// not scenario shape (and so stay out of the spec the baseline pins).
type SwarmOptions struct {
	// Command is the node-process argv prefix, typically
	// {"bin/webwave-cluster", "node"}. Required.
	Command []string
	// Env entries are appended to each node process's environment.
	Env []string
	// WorkDir receives per-node data dirs and logs (empty = temp dir).
	WorkDir string
	// BasePort fixes the port plan (0 = probe free ports).
	BasePort int

	CacheBudgetBytes int64
	DiskBudgetBytes  int64
}

// RunSwarm launches the process tree, plays the schedule with the mid-run
// rack kill and revival, and assembles the report. The log callback (may be
// nil) receives progress lines.
func RunSwarm(sp SwarmSpec, opt SwarmOptions, logf Logf) (*SwarmReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(opt.Command) == 0 {
		return nil, fmt.Errorf("swarm: SwarmOptions.Command is required")
	}
	if sp.KillRack >= sp.Racks {
		return nil, fmt.Errorf("swarm: kill rack %d out of range (racks %d)", sp.KillRack, sp.Racks)
	}

	t, err := SwarmTree(sp.Racks, sp.RackNodes, sp.RackDepth)
	if err != nil {
		return nil, fmt.Errorf("swarm: tree: %w", err)
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	demand, err := trace.ZipfDemand(t, trace.ZipfDemandConfig{
		NumDocs: sp.NumDocs, Skew: 1.0, TotalRate: sp.TotalRate,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("swarm: demand: %w", err)
	}
	// The node processes derive the catalog from -docs alone, so the
	// schedule must request those exact ids, not ZipfDemand's defaults.
	ids := cluster.SwarmDocIDs(sp.NumDocs)
	for j := range demand.Docs {
		demand.Docs[j].ID = ids[j]
	}
	sched := trace.PoissonSchedule(demand, sp.Duration, rng)

	var killed []int
	if sp.KillRack >= 0 {
		killed = SwarmRackNodes(sp, sp.KillRack)
	}

	gossip, diffusion, window := swarmPeriods(t.Len())
	logf("  spawning %d node processes (depth %d)...", t.Len(), t.Height())
	p, err := cluster.NewProc(t, cluster.ProcConfig{
		Command:          opt.Command,
		Env:              opt.Env,
		WorkDir:          opt.WorkDir,
		BasePort:         opt.BasePort,
		NumDocs:          sp.NumDocs,
		DocBytes:         sp.DocBytes,
		GossipPeriod:     gossip,
		DiffusionPeriod:  diffusion,
		Window:           window,
		HeartbeatPeriod:  time.Duration(sp.HeartbeatMS) * time.Millisecond,
		CacheBudgetBytes: opt.CacheBudgetBytes,
		DiskBudgetBytes:  opt.DiskBudgetBytes,
		// A loaded host answers stats in bursts; give big swarms more per-
		// node headroom before a scrape counts as an error.
		ScrapeTimeout: 2*time.Second + time.Duration(t.Len())*20*time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("swarm: %w", err)
	}
	defer p.Stop()
	logf("  swarm up: %d processes, workdir %s", t.Len(), p.WorkDir())

	rep := &SwarmReport{
		Schema: SwarmSchema, Scenario: "swarm", Spec: sp,
		Nodes: t.Len(), Depth: t.Height(), RackKilled: killed,
		RepairSeconds: -1, ReabsorbSeconds: -1,
	}

	start := time.Now()
	var wg sync.WaitGroup
	if len(killed) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(dur(sp.KillAt))))
			killT := time.Now()
			for _, v := range killed {
				p.KillNode(v)
			}
			logf("  rack %d down: %d processes SIGKILLed at t=%.2fs",
				sp.KillRack, len(killed), time.Since(start).Seconds())
			// Survivor repair: poll until no live node is orphaned. The
			// rack died as a unit, so this clocks the detector, and catches
			// any survivor a dead rack manages to strand.
			deadlineT := start.Add(dur(sp.KillAt + sp.Downtime))
			for time.Now().Before(deadlineT) {
				if orphans, ok := orphanCount(p); ok && orphans == 0 {
					rep.RepairSeconds = time.Since(killT).Seconds()
					return
				}
				time.Sleep(250 * time.Millisecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(dur(sp.KillAt + sp.Downtime))))
			restartT := time.Now()
			// Revive in parallel waves by tree depth: everything at one
			// depth restarts concurrently (a sequential sweep of 25
			// handshakes takes most of a minute on a loaded host), while
			// the wave order keeps parents listening before their children
			// re-exec.
			var failed atomic.Int64
			for _, wave := range depthWaves(t, killed) {
				var rwg sync.WaitGroup
				for _, v := range wave {
					rwg.Add(1)
					go func(v int) {
						defer rwg.Done()
						if err := p.RestartNode(v); err != nil {
							logf("  revive node %d FAILED: %v", v, err)
							failed.Add(1)
						}
					}(v)
				}
				rwg.Wait()
			}
			rep.FailedRevives = failed.Load()
			logf("  rack %d re-exec'd (%d revived) at t=%.2fs",
				sp.KillRack, int64(len(killed))-rep.FailedRevives, time.Since(start).Seconds())
			// Reabsorption: the tree is whole when every process is live
			// and every non-root node reports a parent, orphaned nowhere.
			deadlineT := start.Add(dur(sp.Duration + 10))
			for time.Now().Before(deadlineT) {
				if swarmWhole(p) {
					rep.ReabsorbSeconds = time.Since(restartT).Seconds()
					return
				}
				time.Sleep(500 * time.Millisecond)
			}
		}()
	}

	// Open-loop playback. A request whose entry node is dead enters at the
	// nearest live ancestor instead (counted as rerouted); only a send that
	// fails outright counts as a failed injection.
	for i := range sched {
		if wait := time.Until(start.Add(dur(sched[i].Time))); wait > 0 {
			time.Sleep(wait)
		}
		rep.Offered++
		origin := sched[i].Origin
		if p.NodeDead(origin) {
			for origin != t.Root() && p.NodeDead(origin) {
				origin = t.Parent(origin)
			}
			rep.Rerouted++
		}
		if err := p.Inject(origin, sched[i].Doc); err != nil {
			rep.FailedInjects++
		}
	}
	wg.Wait()
	rep.LostInFlight = p.Drain(5 * time.Second)
	rep.Responses = p.Responses()
	if rep.Offered > 0 {
		rep.Availability = round6(float64(rep.Responses) / float64(rep.Offered))
	}

	if sts, err := p.Stats(); err == nil {
		for _, st := range sts {
			if st == nil {
				continue
			}
			rep.Reconnects += st.Reconnects
			rep.ReclaimedDuty += st.ReclaimedDuty
			rep.AbsorbedDuty += st.AbsorbedDuty
			rep.HeartbeatMisses += st.HeartbeatMisses
			rep.WarmDocs += st.WarmDocs
			rep.FinalOrphaned += st.Orphaned
		}
	}
	rep.ReclaimedDuty = round6(rep.ReclaimedDuty)
	rep.AbsorbedDuty = round6(rep.AbsorbedDuty)
	rep.RepairSeconds = round6(rep.RepairSeconds)
	rep.ReabsorbSeconds = round6(rep.ReabsorbSeconds)
	rep.ScrapeErrors = p.ScrapeErrors()

	p.Stop() // explicit, so ForcedTeardowns is final before the report
	rep.ForcedTeardowns = p.ForcedTeardowns()
	logf("  swarm done: %d/%d answered (%.4f), rerouted %d, reabsorb %.2fs, warm docs %d, forced teardowns %d",
		rep.Responses, rep.Offered, rep.Availability, rep.Rerouted,
		rep.ReabsorbSeconds, rep.WarmDocs, rep.ForcedTeardowns)
	return rep, nil
}

// depthWaves groups nodes by tree depth, shallowest first — a restart order
// where every node's parent is already back (or was never down).
func depthWaves(t *tree.Tree, nodes []int) [][]int {
	byDepth := map[int][]int{}
	for _, v := range nodes {
		byDepth[t.Depth(v)] = append(byDepth[t.Depth(v)], v)
	}
	depths := make([]int, 0, len(byDepth))
	for d := range byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	waves := make([][]int, 0, len(depths))
	for _, d := range depths {
		waves = append(waves, byDepth[d])
	}
	return waves
}

// orphanCount sums the Orphaned gauge over live nodes; ok is false when the
// scrape returned nothing usable.
func orphanCount(p *cluster.ProcCluster) (int, bool) {
	sts, err := p.Stats()
	if err != nil {
		return 0, false
	}
	orphans, any := 0, false
	for _, st := range sts {
		if st != nil {
			any = true
			orphans += st.Orphaned
		}
	}
	return orphans, any
}

// swarmWhole reports whether every node is live, attached and orphan-free.
func swarmWhole(p *cluster.ProcCluster) bool {
	t := p.Tree()
	for v := 0; v < t.Len(); v++ {
		if p.NodeDead(v) {
			return false
		}
	}
	sts, err := p.Stats()
	if err != nil {
		return false
	}
	for v, st := range sts {
		if st == nil {
			return false // unreachable or mid-restart: not whole yet
		}
		if st.Orphaned != 0 {
			return false
		}
		if v != t.Root() && st.ParentID < 0 {
			return false
		}
	}
	return true
}

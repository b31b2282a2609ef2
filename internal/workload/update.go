package workload

// Mutable-document scenarios: what do writes cost the caching tree, and
// what do the subtree leases buy when a write storm hits a hot document?
//
// update-heavy plays the identical Poisson schedule twice against a live
// cluster — once read-only (the control), once with a seeded fraction of
// the schedule turned into republish writes — and reports the staleness
// percentiles of every post-write response (age of the served version
// versus the latest write) alongside the hit rate and Jain fairness of
// both passes. The gated figures are the p99 staleness (a write must
// diffuse within about one diffusion period) and the hit-rate cost of the
// write mix versus the read-only control.
//
// invalidation-storm promotes one hot document onto a replication forest,
// then repeatedly invalidates it and storms the leaves with reads: every
// copy below the origin is stale at once, and without the subtree leases
// each of the C clients would ride its own fetch to the origin. With them,
// the per-shard single-flight collapses each subtree's storm into one
// upward fetch, so the origin's serve count per write stays O(subtrees).
// The report measures exactly that quotient from the origin server's own
// serve counter.
//
// Both are wall-clock live-cluster measurements (NOT deterministic); the
// CI gates (UpdateReport.Checks, StormReport.Checks) apply thresholds, not
// byte equality.

import (
	"fmt"
	"math/rand"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/stats"
	"webwave/internal/trace"
	"webwave/internal/tree"
)

// UpdateSchema identifies update-heavy reports.
const UpdateSchema = "webwave-update/v1"

// StormSchema identifies invalidation-storm reports.
const StormSchema = "webwave-storm/v1"

// updateDiffusionPeriod is the cluster diffusion period every update-style
// run uses — the propagation unit the staleness gate is judged against.
const updateDiffusionPeriod = 40 * time.Millisecond

// UpdateSpec parameterizes the update-heavy scenario.
type UpdateSpec struct {
	Seed      int64   `json:"seed"`
	Nodes     int     `json:"nodes"`      // tree size; default 31
	NumDocs   int     `json:"num_docs"`   // catalog size; default 48
	TotalRate float64 `json:"total_rate"` // offered req/s; default 600
	Duration  float64 `json:"duration_s"` // schedule length; default 10
	// WriteFraction of the schedule becomes republish writes (new body, new
	// version) instead of reads. Default 0.10 — the 90/10 mix the baseline
	// gates. 0.5 is the nightly write-heavy variant.
	WriteFraction float64 `json:"write_fraction"`
}

// WithDefaults fills unset fields.
func (s UpdateSpec) WithDefaults() UpdateSpec {
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
		s.Duration = 10
	}
	if s.WriteFraction <= 0 {
		s.WriteFraction = 0.10
	}
	return s
}

// StalenessStats is the percentile digest of response staleness: seconds
// since the served version was superseded, 0 for a latest-version serve.
type StalenessStats struct {
	Samples int64   `json:"samples"`
	Stale   int64   `json:"stale"` // responses that carried a superseded version
	Mean    float64 `json:"mean_s"`
	P50     float64 `json:"p50_s"`
	P95     float64 `json:"p95_s"`
	P99     float64 `json:"p99_s"`
	Max     float64 `json:"max_s"`
}

func stalenessOf(c *cluster.Cluster) StalenessStats {
	sum := c.StalenessSummary()
	stale, total := c.StaleServed()
	return StalenessStats{
		Samples: total, Stale: stale,
		Mean: round6(sum.Mean), P50: round6(sum.P50),
		P95: round6(sum.P95), P99: round6(sum.P99), Max: round6(sum.Max),
	}
}

// UpdatePass is one schedule replay's outcome.
type UpdatePass struct {
	Offered    int64 `json:"offered"` // reads injected
	Writes     int64 `json:"writes"`  // republish writes injected
	Responses  int64 `json:"responses"`
	Unanswered int64 `json:"unanswered"` // reads still open after the drain

	// HitRate is the fraction of responses answered by a node other than
	// the origin — the figure a write mix erodes when invalidations force
	// lease fetches back to the root.
	HitRate float64 `json:"hit_rate"`
	Jain    float64 `json:"jain"`

	Staleness StalenessStats `json:"staleness"`

	// Cluster-wide write-path counters.
	RepublishesIn   int64 `json:"republishes_in"`
	InvalidationsIn int64 `json:"invalidations_in"`
	StaleDrops      int64 `json:"stale_drops"`
	LeaseRefreshes  int64 `json:"lease_refreshes"`
}

// UpdateReport is the update-heavy scenario JSON document.
type UpdateReport struct {
	Schema   string     `json:"schema"`
	Scenario string     `json:"scenario"`
	Spec     UpdateSpec `json:"spec"`

	ReadOnly UpdatePass `json:"read_only"`
	Update   UpdatePass `json:"update"`

	// HitRateCost is the fractional hit-rate drop of the write mix versus
	// the read-only control — the gated price of mutability.
	HitRateCost float64 `json:"hit_rate_cost"`
	// DiffusionPeriodS is the cluster's diffusion period: the propagation
	// unit the p99 staleness gate is judged against.
	DiffusionPeriodS float64 `json:"diffusion_period_s"`
}

// updateCluster builds the live cluster every update-style run uses.
func updateCluster(t *tree.Tree, docs map[core.DocID][]byte, promoteK int) (*cluster.Cluster, error) {
	cfg := cluster.Config{
		GossipPeriod:    20 * time.Millisecond,
		DiffusionPeriod: updateDiffusionPeriod,
		Window:          400 * time.Millisecond,
		Tunneling:       true,
	}
	if promoteK > 1 {
		cfg.PromoteThreshold = 50
		cfg.PromoteK = promoteK
		cfg.PromoteHysteresis = 2
	}
	return cluster.New(t, docs, cfg)
}

// updateMaxHitRateCost is the largest fractional hit-rate drop of the
// write mix versus the read-only control that the update gate accepts.
const updateMaxHitRateCost = 0.10

// Checks gates the mutability floor: the write mix must answer everything,
// actually write and diffuse, keep p99 response staleness within one
// diffusion period (read from the report — a write must be visible
// tree-wide within about one propagation tick), and cost at most
// updateMaxHitRateCost of the control's hit rate.
func (r *UpdateReport) Checks(base *UpdateReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	u := r.Update
	return []Check{
		check(r.ReadOnly.Unanswered == 0 && u.Unanswered == 0,
			"unanswered reads: read-only %d, update %d (every request must be served)",
			r.ReadOnly.Unanswered, u.Unanswered),
		check(u.Writes >= 1, "writes %d (the mix must actually write)", u.Writes),
		check(u.Staleness.Samples >= u.Writes,
			"staleness samples %d over %d writes (post-write responses must be sampled)",
			u.Staleness.Samples, u.Writes),
		check(u.RepublishesIn >= 1,
			"republishes applied %d (writes must diffuse to at least one node)", u.RepublishesIn),
		check(u.Staleness.P99 <= r.DiffusionPeriodS,
			"p99 staleness %.4fs (ceiling %.4fs, one diffusion period %.4fs)",
			u.Staleness.P99, r.DiffusionPeriodS, r.DiffusionPeriodS),
		check(r.HitRateCost <= updateMaxHitRateCost,
			"hit-rate cost %.4f of the read-only control (ceiling %.2f; %.4f -> %.4f)",
			r.HitRateCost, updateMaxHitRateCost, r.ReadOnly.HitRate, u.HitRate),
	}, nil
}

// RunUpdate executes the read-only control pass and the write-mix pass on
// the identical schedule and assembles the report. The log callback (may
// be nil) receives one line per pass.
func RunUpdate(sp UpdateSpec, logf Logf) (*UpdateReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario update-heavy: %d nodes, %d docs, %.0f req/s for %.1fs, write fraction %.2f",
		sp.Nodes, sp.NumDocs, sp.TotalRate, sp.Duration, sp.WriteFraction)
	rng := rand.New(rand.NewSource(sp.Seed))
	t, err := tree.RandomBounded(sp.Nodes, 3, rng)
	if err != nil {
		return nil, fmt.Errorf("update: tree: %w", err)
	}
	demand, err := trace.ZipfDemand(t, trace.ZipfDemandConfig{
		NumDocs: sp.NumDocs, Skew: 1.0, TotalRate: sp.TotalRate,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("update: demand: %w", err)
	}
	docs := make(map[core.DocID][]byte, len(demand.Docs))
	for _, d := range demand.Docs {
		docs[d.ID] = []byte("webwave update document body: " + string(d.ID))
	}
	sched := trace.PoissonSchedule(demand, sp.Duration, rng)

	control, err := updatePass(sp, t, docs, sched, 0)
	if err != nil {
		return nil, fmt.Errorf("update: read-only pass: %w", err)
	}
	logf("  read-only: %d/%d answered, hit rate %.4f, jain %.3f",
		control.Responses, control.Offered, control.HitRate, control.Jain)
	update, err := updatePass(sp, t, docs, sched, sp.WriteFraction)
	if err != nil {
		return nil, fmt.Errorf("update: write-mix pass: %w", err)
	}
	logf("  update:    %d/%d answered + %d writes, hit rate %.4f, jain %.3f, staleness p99 %.4fs (%d/%d stale)",
		update.Responses, update.Offered, update.Writes, update.HitRate, update.Jain,
		update.Staleness.P99, update.Staleness.Stale, update.Staleness.Samples)

	rep := &UpdateReport{
		Schema: UpdateSchema, Scenario: "update-heavy", Spec: sp,
		ReadOnly:         *control,
		Update:           *update,
		DiffusionPeriodS: updateDiffusionPeriod.Seconds(),
	}
	if control.HitRate > 0 {
		rep.HitRateCost = round6((control.HitRate - update.HitRate) / control.HitRate)
	}
	logf("  hit-rate cost %.4f, staleness p99 %.4fs vs diffusion period %.3fs",
		rep.HitRateCost, update.Staleness.P99, rep.DiffusionPeriodS)
	return rep, nil
}

// updatePass replays the schedule against a fresh cluster, turning a
// seeded writeFraction of the entries into republish writes (0 = the
// read-only control). The write decision stream is seeded independently of
// entry order, so both passes offer the identical read set plus-or-minus
// the entries that became writes.
func updatePass(sp UpdateSpec, t *tree.Tree, docs map[core.DocID][]byte, sched []trace.Request, writeFraction float64) (*UpdatePass, error) {
	c, err := updateCluster(t, docs, 0)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	pass := &UpdatePass{}
	wrng := rand.New(rand.NewSource(sp.Seed + 7777))
	start := time.Now()
	for i := range sched {
		if wait := time.Until(start.Add(dur(sched[i].Time))); wait > 0 {
			time.Sleep(wait)
		}
		if writeFraction > 0 && wrng.Float64() < writeFraction {
			pass.Writes++
			body := []byte(fmt.Sprintf("update body %s #%d", sched[i].Doc, pass.Writes))
			if _, err := c.Republish(sched[i].Doc, body); err != nil {
				return nil, err
			}
			continue
		}
		pass.Offered++
		if err := c.Inject(sched[i].Origin, sched[i].Doc); err != nil {
			return nil, err
		}
	}
	pass.Unanswered = c.Drain(5 * time.Second)
	pass.Responses = c.Responses()
	pass.Staleness = stalenessOf(c)

	served := c.ServedBy()
	loads := make([]float64, t.Len())
	var offOrigin int64
	for v, n := range served {
		if v >= 0 && v < len(loads) {
			loads[v] = float64(n)
		}
		if v != t.Root() {
			offOrigin += n
		}
	}
	if pass.Responses > 0 {
		pass.HitRate = round6(float64(offOrigin) / float64(pass.Responses))
	}
	pass.Jain = round6(stats.JainIndex(loads))

	sts, err := c.Stats()
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		if st == nil {
			continue
		}
		pass.RepublishesIn += st.RepublishesIn
		pass.InvalidationsIn += st.InvalidationsIn
		pass.StaleDrops += st.StaleDrops
		pass.LeaseRefreshes += st.LeaseRefreshes
	}
	return pass, nil
}

// StormSpec parameterizes the invalidation-storm scenario.
type StormSpec struct {
	Seed int64 `json:"seed"`
	// The tree is a deliberate two-level star: the origin, Subtrees interior
	// children, and LeavesPer leaves under each — so "O(subtrees)" is a
	// literal count, not a property of a random shape.
	Subtrees  int `json:"subtrees"`   // default 3
	LeavesPer int `json:"leaves_per"` // default 4

	Clients int `json:"clients"` // storm reads per write burst; default 120
	Writes  int `json:"writes"`  // invalidation rounds; default 8
	// K is the replication-forest width for the hot document (PromoteK);
	// the warm-up flash promotes it before the storm. Default 2; the
	// nightly long-form variant runs 3. 1 disables promotion.
	K int `json:"k"`
	// SettleMS is the pause between a write and its read burst: longer than
	// the push propagation of the invalidate frames (a few transport hops),
	// but shorter than one diffusion period — wait a full tick and the duty
	// loop re-delegates fresh bodies downward before the storm arrives,
	// which repairs the tree so proactively the lease has nothing to do.
	// Default 25.
	SettleMS int `json:"settle_ms"`
	// WarmSeconds bounds the warm-up flash that spreads copies (and, K>1,
	// promotes the document) before the storm. Default 8.
	WarmSeconds float64 `json:"warm_seconds"`
}

// WithDefaults fills unset fields.
func (s StormSpec) WithDefaults() StormSpec {
	if s.Subtrees <= 0 {
		s.Subtrees = 3
	}
	if s.LeavesPer <= 0 {
		s.LeavesPer = 4
	}
	if s.Clients <= 0 {
		s.Clients = 120
	}
	if s.Writes <= 0 {
		s.Writes = 8
	}
	if s.K == 0 {
		s.K = 2
	}
	if s.SettleMS <= 0 {
		s.SettleMS = 25
	}
	if s.WarmSeconds <= 0 {
		s.WarmSeconds = 8
	}
	return s
}

// StormReport is the invalidation-storm scenario JSON document.
type StormReport struct {
	Schema   string    `json:"schema"`
	Scenario string    `json:"scenario"`
	Spec     StormSpec `json:"spec"`

	Nodes      int   `json:"nodes"`
	Promotions int64 `json:"promotions"` // forest transitions at the origin (K>1)

	Writes     int64 `json:"writes"`
	BurstReads int64 `json:"burst_reads"` // storm reads injected
	Responses  int64 `json:"responses"`   // total over warm-up + storm
	Unanswered int64 `json:"unanswered"`

	// OriginFetches is the origin server's own serve-counter delta over the
	// storm: requests that actually reached the root, NOT the client-side
	// served-by figure (a coalesced waiter reports the origin as its server
	// without ever costing it a request). PerWriteOriginFetches is the
	// gated quotient — O(subtrees) with the leases working, O(clients)
	// without them — and FetchCollapseX the clients-per-origin-fetch ratio.
	OriginFetches         int64   `json:"origin_fetches"`
	PerWriteOriginFetches float64 `json:"per_write_origin_fetches"`
	FetchCollapseX        float64 `json:"fetch_collapse_x"`
	// UpstreamForwards is the cluster-wide Forwarded delta over the storm —
	// every hop a storm read took toward the origin. A thundering herd
	// forwards every client's read on every write; the leases coalesce
	// concurrent misses at each shard, so the per-write figure stays around
	// the node count instead of the client count.
	UpstreamForwards int64   `json:"upstream_forwards"`
	PerWriteForwards float64 `json:"per_write_forwards"`

	Staleness StalenessStats `json:"staleness"`
	Jain      float64        `json:"jain"` // per-node serves over the whole run

	InvalidationsIn int64 `json:"invalidations_in"`
	RepublishesIn   int64 `json:"republishes_in"`
	StaleDrops      int64 `json:"stale_drops"`
	LeaseRefreshes  int64 `json:"lease_refreshes"`
	Coalesced       int64 `json:"coalesced"`
}

// stormTree builds the two-level star: root 0, Subtrees interior children,
// LeavesPer leaves under each.
func stormTree(sp StormSpec) (*tree.Tree, []int) {
	return starTree(sp.Subtrees, sp.LeavesPer)
}

// starTree builds a two-level star (root, subtrees interior children,
// leavesPer leaves under each) and returns the tree plus its leaves in
// subtree-major order: leaves[s*leavesPer+l] is leaf l of subtree s.
func starTree(subtrees, leavesPer int) (*tree.Tree, []int) {
	parents := []int{tree.NoParent}
	for s := 0; s < subtrees; s++ {
		parents = append(parents, 0)
	}
	var leaves []int
	for s := 0; s < subtrees; s++ {
		for l := 0; l < leavesPer; l++ {
			leaves = append(leaves, len(parents))
			parents = append(parents, 1+s)
		}
	}
	return tree.MustFromParents(parents), leaves
}

// Invalidation-storm gate thresholds.
const (
	stormMaxOriginFactor    = 4.0 // per-write origin fetches, as a multiple of the subtree count
	stormMaxForwardFraction = 0.5 // per-write upstream forwards, as a fraction of the client count
)

// Checks gates the lease collapse: every burst read answered, the leases
// exercised, the warm-up promotion completed when a forest is configured,
// and per-write origin load O(subtrees), not O(clients) — no thundering
// herd. The baseline pins the spec: fewer clients per burst, fewer writes
// or a longer settle would ease the storm the gate exists to measure.
func (r *StormReport) Checks(base *StormReport) ([]Check, error) {
	if err := samePin(r.Spec, base.Spec); err != nil {
		return nil, err
	}
	out := []Check{
		check(r.Unanswered == 0, "unanswered burst reads %d (every storm read must be served)", r.Unanswered),
		check(r.Writes >= 1 && r.InvalidationsIn >= 1,
			"%d writes, %d invalidations applied (the storm must actually invalidate)",
			r.Writes, r.InvalidationsIn),
		check(r.LeaseRefreshes >= 1, "lease refreshes %d (the leases must be exercised)", r.LeaseRefreshes),
	}
	if r.Spec.K > 1 {
		out = append(out, check(r.Promotions >= 1,
			"promotions %d with K=%d (warm-up must raise the forest)", r.Promotions, r.Spec.K))
	}
	// Zero origin fetches is legitimate — proactive duty diffusion can
	// repair the tree before the burst lands — so only the ceiling is gated.
	originCeiling := stormMaxOriginFactor * float64(r.Spec.Subtrees)
	forwardCeiling := stormMaxForwardFraction * float64(r.Spec.Clients)
	return append(out,
		check(r.PerWriteOriginFetches <= originCeiling,
			"%.1f origin fetches/write over %d subtrees (ceiling %.1f; %d clients would herd)",
			r.PerWriteOriginFetches, r.Spec.Subtrees, originCeiling, r.Spec.Clients),
		check(r.PerWriteForwards <= forwardCeiling,
			"%.1f upstream forwards/write vs %d clients (ceiling %.1f)",
			r.PerWriteForwards, r.Spec.Clients, forwardCeiling)), nil
}

// RunStorm executes the invalidation storm and assembles the report. The
// log callback (may be nil) receives progress lines.
func RunStorm(sp StormSpec, logf Logf) (*StormReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario invalidation-storm: %d subtrees x %d leaves, %d clients per burst, %d writes, K=%d, settle %dms",
		sp.Subtrees, sp.LeavesPer, sp.Clients, sp.Writes, sp.K, sp.SettleMS)
	t, leaves := stormTree(sp)
	const hot = core.DocID("hot")
	docs := map[core.DocID][]byte{
		hot:    []byte("storm document, version 0"),
		"cold": []byte("background document"),
	}
	c, err := updateCluster(t, docs, sp.K)
	if err != nil {
		return nil, fmt.Errorf("storm: cluster: %w", err)
	}
	defer c.Stop()
	rep := &StormReport{Schema: StormSchema, Scenario: "invalidation-storm", Spec: sp, Nodes: t.Len()}

	// Warm-up flash: spread copies across the subtrees (and promote the
	// document when a forest is configured) before any write lands.
	warmDeadline := time.Now().Add(dur(sp.WarmSeconds))
	warmed := false
	for !warmed && time.Now().Before(warmDeadline) {
		for _, v := range leaves {
			for i := 0; i < 4; i++ {
				if err := c.Inject(v, hot); err != nil {
					return nil, fmt.Errorf("storm: warm inject: %w", err)
				}
			}
		}
		if left := c.Drain(5 * time.Second); left != 0 {
			return nil, fmt.Errorf("storm: %d warm-up reads unanswered", left)
		}
		sts, err := c.Stats()
		if err != nil {
			return nil, fmt.Errorf("storm: warm stats: %w", err)
		}
		// Warm means: copies exist below the origin (some node beyond the
		// root caches hot), and the forest fired when one was asked for.
		spread := false
		for v, st := range sts {
			if v == t.Root() || st == nil {
				continue
			}
			for _, d := range st.CachedDocs {
				if d == hot {
					spread = true
				}
			}
		}
		promoted := sp.K <= 1 || (sts[t.Root()] != nil && sts[t.Root()].Promotions >= 1)
		warmed = spread && promoted
	}
	if !warmed {
		return nil, fmt.Errorf("storm: warm-up never spread the document (K=%d)", sp.K)
	}
	sts, err := c.Stats()
	if err != nil {
		return nil, err
	}
	originBefore := sts[t.Root()].Served
	var forwardedBefore int64
	for _, st := range sts {
		if st != nil {
			forwardedBefore += st.Forwarded
		}
	}
	logf("  warm: origin served %d during spread, promotions %d", originBefore, sts[t.Root()].Promotions)

	// The storm: invalidate, let the version-only frames diffuse, then hit
	// every leaf at once. Each subtree's concurrent misses must collapse
	// into one lease fetch at the origin.
	for w := 0; w < sp.Writes; w++ {
		body := []byte(fmt.Sprintf("storm document, version %d", w+1))
		if _, err := c.Invalidate(hot, body); err != nil {
			return nil, fmt.Errorf("storm: write %d: %w", w, err)
		}
		rep.Writes++
		time.Sleep(time.Duration(sp.SettleMS) * time.Millisecond)
		for i := 0; i < sp.Clients; i++ {
			if err := c.Inject(leaves[i%len(leaves)], hot); err != nil {
				return nil, fmt.Errorf("storm: burst inject: %w", err)
			}
			rep.BurstReads++
		}
		rep.Unanswered += c.Drain(5 * time.Second)
	}

	sts, err = c.Stats()
	if err != nil {
		return nil, err
	}
	rep.OriginFetches = sts[t.Root()].Served - originBefore
	rep.PerWriteOriginFetches = round6(float64(rep.OriginFetches) / float64(rep.Writes))
	if rep.PerWriteOriginFetches > 0 {
		rep.FetchCollapseX = round6(float64(sp.Clients) / rep.PerWriteOriginFetches)
	}
	rep.Promotions = sts[t.Root()].Promotions
	for _, st := range sts {
		if st != nil {
			rep.UpstreamForwards += st.Forwarded
		}
	}
	rep.UpstreamForwards -= forwardedBefore
	rep.PerWriteForwards = round6(float64(rep.UpstreamForwards) / float64(rep.Writes))
	for _, st := range sts {
		if st == nil {
			continue
		}
		rep.InvalidationsIn += st.InvalidationsIn
		rep.RepublishesIn += st.RepublishesIn
		rep.StaleDrops += st.StaleDrops
		rep.LeaseRefreshes += st.LeaseRefreshes
		rep.Coalesced += st.Coalesced
	}
	rep.Responses = c.Responses()
	rep.Staleness = stalenessOf(c)
	served := c.ServedBy()
	loads := make([]float64, t.Len())
	for v, n := range served {
		if v >= 0 && v < len(loads) {
			loads[v] = float64(n)
		}
	}
	rep.Jain = round6(stats.JainIndex(loads))
	logf("  storm: %d writes x %d clients -> %d origin fetches (%.1f/write, collapse %.0fx), %.1f forwards/write, lease refreshes %d, staleness p99 %.4fs",
		rep.Writes, sp.Clients, rep.OriginFetches, rep.PerWriteOriginFetches,
		rep.FetchCollapseX, rep.PerWriteForwards, rep.LeaseRefreshes, rep.Staleness.P99)
	return rep, nil
}

package server

import (
	"sync"
	"sync/atomic"
	"time"

	"webwave/internal/cachestore"
	"webwave/internal/core"
	"webwave/internal/netproto"
	"webwave/internal/router"
	"webwave/internal/transport"
)

// pubMap is a shard's copy-on-write publication index: the documents this
// shard currently serves, readable lock-free by every connection goroutine.
// Only the owning shard loop writes it (load, copy, store — no CAS needed);
// other shards may at most tombstone an entry's dead flag on an eviction.
type pubMap = map[core.DocID]*pubEntry

// pubEntry is one published document. The body is immutable; the atomics
// accumulate fast-path activity between shard ticks.
type pubEntry struct {
	body []byte
	// version is the document version of body (0 = never republished);
	// responses stamp it so clients and staleness probes can compare the
	// served copy against the latest write.
	version uint64
	// always marks an origin (pinned) copy: admitted unconditionally. A
	// delegated or tunneled copy instead spends credits, the fast-path
	// stand-in for the shard's rate-limited admission filter.
	always bool
	// dead is the eviction tombstone: set (possibly by another shard's
	// Put displacing this copy) the moment the document leaves the store,
	// so the fast path stops serving a stale body before the owning shard
	// gets around to unpublishing.
	dead atomic.Bool
	// credits is the admission budget for gated copies: the owning shard
	// refreshes it each tick to the window the exact filter would admit
	// (target − served rate, scaled to the tick); the fast path spends one
	// per serve and falls back to the shard queue when exhausted.
	credits atomic.Int64
	// served counts fast-path serves since the owner last drained them
	// into its rate windows.
	served atomic.Int64
	// flows counts fast-path arrivals per sender id (-1 = locally
	// injected) since the last drain — the A_j^d accounting the diffusion
	// protocol needs, kept even for requests that never touch a loop.
	flows atomic.Pointer[map[int]*atomic.Int64]
}

// bumpFlow counts one fast-path arrival from the given sender. New senders
// install their counter with a copy-on-write swap (existing counters are
// carried by pointer, so no concurrent increment is lost); the steady state
// is a single atomic add.
func (e *pubEntry) bumpFlow(from int) {
	for {
		m := e.flows.Load()
		if m != nil {
			if c, ok := (*m)[from]; ok {
				c.Add(1)
				return
			}
		}
		var nm map[int]*atomic.Int64
		if m == nil {
			nm = make(map[int]*atomic.Int64, 4)
		} else {
			nm = make(map[int]*atomic.Int64, len(*m)+1)
			for k, v := range *m {
				nm[k] = v
			}
		}
		c := new(atomic.Int64)
		nm[from] = c
		if e.flows.CompareAndSwap(m, &nm) {
			c.Add(1)
			return
		}
	}
}

// shardSnap is the epoch-stamped snapshot a shard publishes to its mailbox:
// the aggregate heat/duty figures the control loop reads for gossip and
// diffusion, and other shards read for eviction ranking — all without
// touching loop-owned state.
type shardSnap struct {
	// epoch increments per publication; it stops advancing when a wedged
	// shard misses its (non-blocking, skippable) ticks, and the stats
	// scrape exposes it per shard so exactly that is observable.
	epoch      uint64
	load       float64 // served req/s over the window, fast path included
	pendingLen int

	targets map[core.DocID]float64
	served  map[core.DocID]float64         // measured served rates
	flows   map[int]map[core.DocID]float64 // per sender id; -1 = local demand

	// Router state captured at the same instant as the duty figures, so a
	// stats scrape served from this snapshot is internally consistent: a
	// torn-down filter never appears alongside its already-deleted target's
	// stale value, however stale the snapshot itself is.
	installed []core.DocID
	filter    router.Stats

	counters shardCounters
}

// shardCounters is the loop-owned counter block carried in snapshots.
// fastServed is captured here right after the snapshot's drain, so a
// scrape always sees FastServed consistent with (a subset of) Served
// instead of a live atomic racing ahead of the drained counters.
type shardCounters struct {
	served, forwarded, coalesced       int64
	delegIn, delegOut, shedIn, shedOut int64
	evictHintsIn, fastServed           int64
	diskHits                           int64
	republishesIn, invalidationsIn     int64
	staleDrops, leaseRefreshes         int64
	sessionRefreshes                   int64
	reclaimedDuty, absorbedDuty        float64
}

// evictedNote is a cross-shard eviction cleanup request: shard A's Put
// displaced a document owned by shard B; B must tear down its protocol
// state for it.
type evictedNote struct {
	doc core.DocID
}

// shard is one doc-sharded event loop. Everything below `events` is owned
// by the loop goroutine; the atomics at the bottom are the lock-free
// surfaces other goroutines touch.
type shard struct {
	s      *Server
	idx    int
	events chan event

	now         time.Time // loop-owned clock, read once per event batch
	rt          *router.Router
	targets     map[core.DocID]float64
	served      map[core.DocID]*rateWindow
	totalServed *rateWindow
	localFlow   map[core.DocID]*rateWindow
	childFlow   map[int]map[core.DocID]*rateWindow // A_j^d estimates
	// childDuty is the per-child delegated-duty ledger: how much serve duty
	// for each document is believed to live at (or below) each child —
	// credited by outgoing delegations and incoming reclaims, debited when
	// the child sheds duty back or abandons it with an evict hint. When a
	// child dies the ledger is what the node re-absorbs, so the wave does
	// not silently lose the dead subtree's share.
	childDuty map[int]map[core.DocID]float64
	pending   map[pendingKey]pendingEntry
	inflight  map[core.DocID]*flight
	// docVer is the latest document version this shard has seen per doc
	// (from republish/invalidate frames, delegated copies, or responses);
	// it only moves forward, and a held copy never lags it (a newer version
	// seen on a passing response replaces the older copy). gateVer is the
	// version write frames gate on: advanced by applied writes and by copy
	// handoffs (delegations, tunnel replies, promotions, warm recovery),
	// never by a passing response — so a version first seen on a response
	// never gets its own write dropped before it reaches the children.
	// staleDocs marks documents whose body was dropped while their filter
	// and duty stayed — cleared when a passing response re-admits the fresh
	// copy (the lease refresh, update.go).
	docVer      map[core.DocID]uint64
	gateVer     map[core.DocID]uint64
	staleDocs   map[core.DocID]bool
	flightRetry time.Duration
	batch       []event
	laneSender

	lastSweep time.Time
	lastReap  time.Time

	// Counters (loop-owned; exported via snapshots).
	nServed, nForwarded, nCoalesced  int64
	nDelegIn, nDelegOut              int64
	nShedIn, nShedOut, nEvictHintsIn int64
	nDiskHits                        int64
	nRepublishesIn, nInvalidationsIn int64
	nStaleDrops, nLeaseRefreshes     int64
	nSessionRefreshes                int64
	nReclaimedDuty, nAbsorbedDuty    float64

	// jTargets is the last journaled duty per admitted document (persist.go);
	// nil while the disk tier is disabled. jVers mirrors it for the last
	// journaled copy version (update.go).
	jTargets map[core.DocID]float64
	jVers    map[core.DocID]uint64

	// Lock-free surfaces.
	pub         atomic.Pointer[pubMap]    // publication index (single writer: this loop)
	snap        atomic.Pointer[shardSnap] // epoch-stamped mailbox
	epoch       uint64
	nFastServed atomic.Int64 // cumulative fast-path serves

	// strandedDuty parks duty that should have been hinted upward (an
	// eviction's residual, a dead child's un-absorbable ledger) while the
	// node is orphaned: with no parent link the hint has nowhere to go, and
	// dropping it would silently zero that share of the wave. parentRestored
	// flushes it across the repaired edge.
	strandedDuty map[core.DocID]float64

	// Two-phase tombstone reaping: unpublished docs wait here one full
	// tick before their entries leave the index, so a connection goroutine
	// that loaded the index just before the tombstone still bumps counters
	// drainFast can reach.
	tombstoned, tombstonedPrev []core.DocID

	evictMu   sync.Mutex
	evictedIn []evictedNote // posted by other shards' Puts, drained by this loop
}

func newShard(s *Server, idx int) *shard {
	cfg := s.cfg
	sh := &shard{
		s:           s,
		idx:         idx,
		events:      make(chan event, cfg.QueueDepth),
		now:         time.Now(),
		rt:          router.New(),
		targets:     make(map[core.DocID]float64, 16),
		served:      make(map[core.DocID]*rateWindow, 16),
		localFlow:   make(map[core.DocID]*rateWindow, 16),
		childFlow:   make(map[int]map[core.DocID]*rateWindow, 8),
		childDuty:   make(map[int]map[core.DocID]float64, 8),
		pending:     make(map[pendingKey]pendingEntry, 64),
		inflight:    make(map[core.DocID]*flight, 16),
		docVer:      make(map[core.DocID]uint64, 16),
		gateVer:     make(map[core.DocID]uint64, 16),
		staleDocs:   make(map[core.DocID]bool, 4),
		batch:       make([]event, 0, cfg.MaxBatch),
		totalServed: newRateWindow(cfg.Window, 8),
		laneSender:  laneSender{s: s, lane: idx},
	}
	sh.flightRetry = 2 * cfg.GossipPeriod
	if sh.flightRetry < 20*time.Millisecond {
		sh.flightRetry = 20 * time.Millisecond
	}
	pm := make(pubMap)
	sh.pub.Store(&pm)
	return sh
}

func (sh *shard) loop() {
	defer sh.s.wg.Done()
	// Each shard owns its maintenance timer: ticks must keep firing on the
	// busiest shard (select chooses uniformly among ready cases, so a
	// flooded event queue cannot starve the ticker), where a control-posted
	// tick command would be exactly what a saturated queue drops.
	tick := time.NewTicker(sh.s.cfg.GossipPeriod)
	defer tick.Stop()
	for {
		select {
		case <-sh.s.stopped:
			return
		case ev := <-sh.events:
			sh.now = time.Now()
			sh.drainEvicted()
			sh.handleBatch(ev)
		case <-tick.C:
			sh.now = time.Now()
			sh.drainEvicted()
			sh.tick()
		}
		sh.flushDirty()
	}
}

// handleBatch drains the shard queue (bounded by MaxBatch) and processes it
// under one clock reading. Consumed envelopes return to netproto's pool.
func (sh *shard) handleBatch(first event) {
	sh.batch = append(sh.batch[:0], first)
drain:
	for len(sh.batch) < sh.s.cfg.MaxBatch {
		select {
		case ev := <-sh.events:
			sh.batch = append(sh.batch, ev)
		default:
			break drain
		}
	}
	for _, ev := range sh.batch {
		if ev.closed {
			sh.handleConnClosed(ev.conn)
			continue
		}
		if ev.cmd != cmdNone {
			sh.handleCmd(ev)
			continue
		}
		sh.handle(ev)
		netproto.PutEnvelope(ev.env)
	}
	clear(sh.batch) // drop envelope/conn refs before reuse
}

func (sh *shard) handleCmd(ev event) {
	switch ev.cmd {
	case cmdSnap:
		sh.tick()
		if ev.reply != nil {
			ev.reply <- sh.snap.Load()
		}
	case cmdDelegate:
		sh.delegateOut(ev.child, ev.doc, ev.rate)
	case cmdShed:
		sh.shedOut(ev.doc, ev.rate)
	case cmdClaim:
		// The claim was computed from a snapshot; re-validate like
		// delegateOut does, so a copy evicted in between does not get a
		// phantom target resurrected for it.
		if !sh.s.holdsCopy(ev.doc) {
			return
		}
		sh.targets[ev.doc] += ev.rate
		sh.refreshCredit(ev.doc) // arm the fast path without waiting a tick
	case cmdPreclaim:
		sh.targets[ev.doc] += ev.rate // tunneled copy still in flight: no cached check
	case cmdChildGone:
		delete(sh.childFlow, ev.child)
		sh.absorbChildDuty(ev.child)
	case cmdParentRestored:
		sh.parentRestored()
	case cmdPromoteOut:
		sh.promoteOut(ev.child, ev.doc, ev.rate)
	case cmdPromoteIn:
		sh.promoteIn(ev.doc, ev.rate, ev.body, ev.ver)
	case cmdDemoteLocal:
		sh.demoteLocal(ev.doc)
	}
}

// absorbChildDuty re-absorbs a dead child's ledgered duty: documents this
// node still holds take the rate back into their own targets (the parent
// resumes serving what the dead subtree carried); documents it no longer
// holds get the stranded rate hinted upward like an eviction, so a
// surviving ancestor copy absorbs it instead of the wave zeroing out.
func (sh *shard) absorbChildDuty(child int) {
	ledger := sh.childDuty[child]
	if ledger == nil {
		return
	}
	delete(sh.childDuty, child)
	for doc, rate := range ledger {
		if rate <= 0 {
			continue
		}
		if sh.s.holdsCopy(doc) {
			sh.targets[doc] += rate
			sh.nAbsorbedDuty += rate
			sh.refreshCredit(doc)
			continue
		}
		sh.hintUp(doc, rate)
	}
}

// hintUp forwards abandoned duty toward the parent as an evict hint so a
// surviving copy upstream absorbs it. While orphaned the hint has no live
// edge to travel; the rate is parked in strandedDuty and flushed by
// parentRestored, so duty conservation survives a double failure (losing a
// child and the parent in the same window).
func (sh *shard) hintUp(doc core.DocID, rate float64) {
	if rate <= 0 {
		return
	}
	pl := sh.s.parentLink()
	if pl == nil {
		if sh.strandedDuty == nil {
			sh.strandedDuty = make(map[core.DocID]float64, 4)
		}
		sh.strandedDuty[doc] += rate
		return
	}
	sh.sendOn(pl.conn, &netproto.Envelope{
		Kind: netproto.TypeEvict, From: sh.s.cfg.ID, To: pl.id,
		Doc: doc, Rate: rate,
	})
}

// parentRestored replays this shard's state onto a freshly failed-over
// parent link: one reclaim frame per held target (so the new parent's duty
// ledger mirrors what actually lives below the repaired edge), then every
// unanswered pending request (their forwarded copies died with the old
// link; responses still route back by (origin, reqID)).
func (sh *shard) parentRestored() {
	pl := sh.s.parentLink()
	if pl == nil {
		return // lost again before the command drained
	}
	for doc, rate := range sh.targets {
		if rate <= 0 {
			continue
		}
		sh.sendOn(pl.conn, &netproto.Envelope{
			Kind: netproto.TypeReclaim, From: sh.s.cfg.ID, To: pl.id,
			Doc: doc, Rate: rate,
		})
	}
	// Duty stranded while orphaned: re-absorb what we meanwhile hold again
	// (a tunneled copy, say), hint the rest across the repaired edge.
	stranded := sh.strandedDuty
	sh.strandedDuty = nil
	for doc, rate := range stranded {
		if sh.s.holdsCopy(doc) {
			sh.targets[doc] += rate
			sh.nAbsorbedDuty += rate
			sh.refreshCredit(doc)
			continue
		}
		sh.hintUp(doc, rate)
	}
	fwd := netproto.GetEnvelope()
	for key, pe := range sh.pending {
		*fwd = netproto.Envelope{
			Kind: netproto.TypeRequest, From: sh.s.cfg.ID, To: pl.id,
			Doc: pe.doc, Origin: key.origin, ReqID: key.reqID, Hops: pe.hops + 1,
			MinVersion: pe.minVer,
		}
		sh.sendOn(pl.conn, fwd)
		pe.at = sh.now // restart the TTL clock from the replay
		sh.pending[key] = pe
	}
	netproto.PutEnvelope(fwd)
	// Flights stay armed so new arrivals keep coalescing behind the replays
	// instead of each traveling upstream.
	for _, fl := range sh.inflight {
		fl.at = sh.now
	}
}

// dutyLedger returns (creating if needed) the delegated-duty ledger for one
// child.
func (sh *shard) dutyLedger(child int) map[core.DocID]float64 {
	m := sh.childDuty[child]
	if m == nil {
		m = make(map[core.DocID]float64, 8)
		sh.childDuty[child] = m
	}
	return m
}

// dropLedgerDuty debits duty a child handed back (shed) or abandoned
// (evict hint), clamped at zero.
func (sh *shard) dropLedgerDuty(child int, doc core.DocID, rate float64) {
	m := sh.childDuty[child]
	if m == nil {
		return
	}
	if r := m[doc] - rate; r > 1e-9 {
		m[doc] = r
	} else {
		delete(m, doc)
	}
}

// tick is the shard's periodic self-maintenance, driven by its own timer
// every gossip period (and by cmdSnap for scrapes): fold fast-path
// activity into the rate windows, refresh admission credits, sweep stale
// routing state, republish the snapshot mailbox.
func (sh *shard) tick() {
	// Read the cumulative fast-serve counter before the drain: every serve
	// it covers bumped its entry counter first (program order, seq-cst
	// atomics), so the drain below folds all of them into nServed and the
	// snapshot's fastServed stays a subset of its served.
	fast := sh.nFastServed.Load()
	sh.drainFast()
	sh.reapTombstones()
	sh.refreshCredits()
	sh.journalTick()
	sweepEvery := sh.s.cfg.PendingTTL / 2
	if sweepEvery < 10*time.Millisecond {
		sweepEvery = 10 * time.Millisecond
	}
	if sh.now.Sub(sh.lastSweep) >= sweepEvery {
		sh.lastSweep = sh.now
		sh.sweepStale()
	}
	sh.publishSnap(fast)
}

// drainFast folds the fast path's atomic serve/flow counts into the
// loop-owned rate windows, so gossip, diffusion and the admission filters
// see fast-path demand exactly like queued demand. A drained serve also
// touches the store once, keeping recency-based eviction policies aware
// that the document is hot.
func (sh *shard) drainFast() {
	for doc, e := range *sh.pub.Load() {
		sh.drainEntry(doc, e)
	}
}

// drainEntry folds one entry's pending fast-path counts into the windows.
func (sh *shard) drainEntry(doc core.DocID, e *pubEntry) {
	now := sh.now
	if n := e.served.Swap(0); n > 0 {
		sh.nServed += n
		sh.totalServed.Add(now, float64(n))
		sh.servedWindow(doc).Add(now, float64(n))
		if !e.dead.Load() {
			sh.s.cache.Get(doc) // one recency/frequency touch per active tick
		}
	}
	if fm := e.flows.Load(); fm != nil {
		for from, c := range *fm {
			if n := c.Swap(0); n > 0 {
				sh.flowWindow(from, doc).Add(now, float64(n))
			}
		}
	}
}

// reapTombstones removes entries unpublished at least one full gossip
// period ago from the index (unless the document was republished since —
// its entry is live again and stays). Between the tombstone and the reap
// the dead entry declines every fast-path serve but keeps its counters
// reachable, so a racing bump is at worst drained one tick late instead of
// lost. The generation shift is clamped to the gossip period — ticks also
// run per stats scrape (cmdSnap), and a tight scrape loop must not
// collapse the grace window a racing connection goroutine relies on.
func (sh *shard) reapTombstones() {
	if sh.now.Sub(sh.lastReap) < sh.s.cfg.GossipPeriod {
		return
	}
	sh.lastReap = sh.now
	if len(sh.tombstonedPrev) > 0 {
		old := sh.pub.Load()
		nm := make(pubMap, len(*old))
		for k, v := range *old {
			nm[k] = v
		}
		for _, doc := range sh.tombstonedPrev {
			if e := nm[doc]; e != nil && e.dead.Load() {
				sh.drainEntry(doc, e) // final stragglers
				delete(nm, doc)
			}
		}
		sh.pub.Store(&nm)
	}
	sh.tombstonedPrev = sh.tombstoned
	sh.tombstoned = nil
}

// refreshCredits reloads every gated entry's admission budget (see
// refreshCredit).
func (sh *shard) refreshCredits() {
	for doc, e := range *sh.pub.Load() {
		sh.refreshEntryCredit(doc, e)
	}
}

// publishSnap rebuilds and stores the snapshot mailbox. fast is the
// cumulative fast-serve count captured before the preceding drain.
func (sh *shard) publishSnap(fast int64) {
	sh.epoch++
	now := sh.now
	snap := &shardSnap{
		epoch:      sh.epoch,
		load:       sh.totalServed.Rate(now),
		pendingLen: len(sh.pending),
		targets:    make(map[core.DocID]float64, len(sh.targets)),
		served:     make(map[core.DocID]float64, len(sh.served)),
		flows:      make(map[int]map[core.DocID]float64, len(sh.childFlow)+1),
		installed:  sh.rt.Installed(),
		filter:     sh.rt.Stats(),
		counters: shardCounters{
			served: sh.nServed, forwarded: sh.nForwarded, coalesced: sh.nCoalesced,
			delegIn: sh.nDelegIn, delegOut: sh.nDelegOut,
			shedIn: sh.nShedIn, shedOut: sh.nShedOut,
			evictHintsIn:     sh.nEvictHintsIn,
			diskHits:         sh.nDiskHits,
			republishesIn:    sh.nRepublishesIn,
			invalidationsIn:  sh.nInvalidationsIn,
			staleDrops:       sh.nStaleDrops,
			leaseRefreshes:   sh.nLeaseRefreshes,
			sessionRefreshes: sh.nSessionRefreshes,
			fastServed:       fast,
			reclaimedDuty:    sh.nReclaimedDuty, absorbedDuty: sh.nAbsorbedDuty,
		},
	}
	for d, t := range sh.targets {
		snap.targets[d] = t
	}
	for d, w := range sh.served {
		snap.served[d] = w.Rate(now)
	}
	for child, flows := range sh.childFlow {
		m := make(map[core.DocID]float64, len(flows))
		for d, w := range flows {
			if r := w.Rate(now); r > 0 {
				m[d] = r
			}
		}
		snap.flows[child] = m
	}
	if len(sh.localFlow) > 0 {
		m := make(map[core.DocID]float64, len(sh.localFlow))
		for d, w := range sh.localFlow {
			if r := w.Rate(now); r > 0 {
				m[d] = r
			}
		}
		snap.flows[-1] = m
	}
	sh.snap.Store(snap)
}

// drainEvicted applies eviction cleanups posted by other shards' Puts.
func (sh *shard) drainEvicted() {
	sh.evictMu.Lock()
	if len(sh.evictedIn) == 0 {
		sh.evictMu.Unlock()
		return
	}
	notes := sh.evictedIn
	sh.evictedIn = nil
	sh.evictMu.Unlock()
	for _, n := range notes {
		sh.dropEvicted(n.doc)
	}
}

// postEvicted queues an eviction cleanup for this (non-owning caller's)
// shard; the owner drains it at its next batch or tick.
func (sh *shard) postEvicted(doc core.DocID) {
	sh.evictMu.Lock()
	sh.evictedIn = append(sh.evictedIn, evictedNote{doc: doc})
	sh.evictMu.Unlock()
}

// killPub tombstones a published entry so the fast path stops serving it.
// Safe from any goroutine — this is the one cross-shard write, a single
// atomic flag.
func (sh *shard) killPub(doc core.DocID) {
	if e := (*sh.pub.Load())[doc]; e != nil {
		e.dead.Store(true)
	}
}

// publish installs (or refreshes) a document in the copy-on-write
// publication index, stamping the copy's version for response frames.
// Owner loop only (single writer). Counts still pending on a replaced
// entry (a refresh, or a tombstone being republished) are drained first so
// no fast-path serves vanish from the stats.
func (sh *shard) publish(doc core.DocID, body []byte, always bool, version uint64) {
	old := sh.pub.Load()
	var nm pubMap
	if old == nil {
		nm = make(pubMap, 8)
	} else {
		nm = make(pubMap, len(*old)+1)
		for k, v := range *old {
			nm[k] = v
		}
		if prev := nm[doc]; prev != nil {
			sh.drainEntry(doc, prev)
		}
	}
	e := &pubEntry{body: body, always: always, version: version}
	nm[doc] = e
	sh.pub.Store(&nm)
}

// unpublish tombstones a document in the publication index (owner loop
// only) and drains its pending counts; the entry itself is reaped from the
// map two ticks later (reapTombstones), keeping a racing bump reachable.
func (sh *shard) unpublish(doc core.DocID) {
	e := (*sh.pub.Load())[doc]
	if e == nil {
		return
	}
	e.dead.Store(true)
	sh.drainEntry(doc, e)
	sh.tombstoned = append(sh.tombstoned, doc)
}

// servedWindow returns (creating if needed) the served-rate window for doc.
func (sh *shard) servedWindow(doc core.DocID) *rateWindow {
	w := sh.served[doc]
	if w == nil {
		w = newRateWindow(sh.s.cfg.Window, 8)
		sh.served[doc] = w
	}
	return w
}

// flowWindow returns the arrival-rate window for doc as seen from sender
// `from`: a child's A_j^d estimate for forwarded requests (requests only
// travel up the tree, so any non-negative sender id is a child), or local
// demand for client-injected ones (From -1). Keying on the envelope's id
// rather than the registration view keeps attribution correct even when a
// child's first requests overtake its registering gossip across the shard
// and control queues — the single event loop's per-connection FIFO no
// longer orders those two.
func (sh *shard) flowWindow(from int, doc core.DocID) *rateWindow {
	if from >= 0 {
		flows := sh.childFlow[from]
		if flows == nil {
			flows = make(map[core.DocID]*rateWindow, 16)
			sh.childFlow[from] = flows
		}
		w := flows[doc]
		if w == nil {
			w = newRateWindow(sh.s.cfg.Window, 8)
			flows[doc] = w
		}
		return w
	}
	w := sh.localFlow[doc]
	if w == nil {
		w = newRateWindow(sh.s.cfg.Window, 8)
		sh.localFlow[doc] = w
	}
	return w
}

func (sh *shard) handle(ev event) {
	env := ev.env
	switch env.Kind {
	case netproto.TypeRequest:
		sh.handleRequest(ev)

	case netproto.TypeResponse:
		// A response is also a version observation: learn the served
		// version before routing, so the lease check below compares
		// against the freshest high-water mark. A newer version can pass
		// before its write frame arrives (the origin's fast path answers
		// ahead of the write lane); the held copy is then stale and takes
		// the passing body in place, as a republish would install it.
		if sh.bumpDocVer(env.Doc, env.DocVersion) && sh.s.holdsCopy(env.Doc) {
			var body []byte
			if !env.NotFound && len(env.Body) > 0 {
				body = env.Body
			}
			sh.replaceCopy(env.Doc, body, env.DocVersion)
		}
		key := pendingKey{origin: env.Origin, reqID: env.ReqID}
		if pe, ok := sh.pending[key]; ok {
			delete(sh.pending, key)
			sh.sendOn(pe.conn, env)
		}
		// Any response carrying this document also answers the requests
		// coalesced behind the in-flight fetch.
		if fl, ok := sh.inflight[env.Doc]; ok {
			delete(sh.inflight, env.Doc)
			sh.answerWaiters(fl, env)
		}
		sh.maybeLeaseRefresh(env)

	case netproto.TypeDelegate:
		sh.nDelegIn++
		sh.s.gotDelegate.Store(true)
		if env.Body != nil {
			// A copy that does not fit under the byte budget is simply not
			// admitted (no ack): the delegated flow keeps passing toward
			// the home server and the parent reclaims it via claimPassing.
			sh.admit(env.Doc, env.Body, env.DocVersion)
		}
		if sh.s.holdsCopy(env.Doc) {
			sh.targets[env.Doc] += env.Rate
			sh.refreshCredit(env.Doc) // arm the fast path without waiting a tick
			sh.sendOn(ev.conn, &netproto.Envelope{
				Kind: netproto.TypeDelegateAck, From: sh.s.cfg.ID, To: env.From,
				Doc: env.Doc, Rate: env.Rate,
			})
		}

	case netproto.TypeDelegateAck:
		// Accepted in full in this implementation; nothing to reconcile.

	case netproto.TypeShed:
		sh.nShedIn++
		// Duty coming back up is no longer the sender's: debit its ledger.
		sh.dropLedgerDuty(env.From, env.Doc, env.Rate)
		// Pick up shed duty only for documents we hold (either tier);
		// otherwise the request flow simply continues to the home server.
		if sh.s.holdsCopy(env.Doc) {
			sh.targets[env.Doc] += env.Rate
			sh.refreshCredit(env.Doc)
		}

	case netproto.TypeEvict:
		// A neighbor displaced its copy under memory pressure. Absorb the
		// serve duty it abandoned if we still hold the document; otherwise
		// the flow simply continues toward the home server, which always
		// can serve (origin copies are pinned).
		sh.nEvictHintsIn++
		sh.dropLedgerDuty(env.From, env.Doc, env.Rate)
		if sh.s.holdsCopy(env.Doc) {
			sh.targets[env.Doc] += env.Rate
			sh.refreshCredit(env.Doc)
		}

	case netproto.TypeReclaim:
		// An orphan that failed over to this node re-announces duty it is
		// still carrying. Credit the child's ledger — the same bookkeeping
		// the evict-hint path debits — so a later loss of this child
		// re-absorbs exactly what lives below the repaired edge. The duty
		// itself stays at the child; nothing is added to our own targets.
		sh.nReclaimedDuty += env.Rate
		sh.dutyLedger(env.From)[env.Doc] += env.Rate

	case netproto.TypeTunnelFetch:
		// Only the home can answer authoritatively. Peek: a tunnel fetch
		// is a copy transfer, not local demand, so it must not refresh
		// recency or frequency. A fetch carrying a session floor newer than
		// our high-water mark goes unanswered — shipping an older copy
		// across the barrier would plant exactly the stale body the token
		// exists to bypass.
		if body, ver, ok := sh.heldCopy(env.Doc); ok && env.MinVersion <= ver {
			sh.sendOn(ev.conn, &netproto.Envelope{
				Kind: netproto.TypeTunnelReply, From: sh.s.cfg.ID, To: env.From,
				Doc: env.Doc, Body: body, DocVersion: ver,
			})
		}

	case netproto.TypeTunnelReply:
		if env.Body != nil && sh.admit(env.Doc, env.Body, env.DocVersion) {
			// The tunnel's pre-claim raised the target before the copy
			// existed; arm the fast path now instead of one tick late —
			// the burst that triggered tunneling is happening right now.
			sh.refreshCredit(env.Doc)
		}

	case netproto.TypeRepublish:
		sh.handleRepublish(env)

	case netproto.TypeInvalidate:
		sh.handleInvalidate(env)
	}
}

// refreshCredit re-arms one gated entry's fast-path budget after a target
// change, instead of leaving the fast path cold until the next tick.
func (sh *shard) refreshCredit(doc core.DocID) {
	if e := (*sh.pub.Load())[doc]; e != nil {
		sh.refreshEntryCredit(doc, e)
	}
}

// refreshEntryCredit reloads one gated entry's admission budget to what the
// exact filter would admit over the next tick: target minus measured served
// rate, scaled by the tick length (+1 so a barely-lagging copy still
// serves). Overshoot is bounded by one tick's worth of credits.
func (sh *shard) refreshEntryCredit(doc core.DocID, e *pubEntry) {
	if e.always || e.dead.Load() {
		return
	}
	gap := sh.targets[doc]
	if w := sh.served[doc]; w != nil {
		gap -= w.Rate(sh.now)
	}
	if gap > 0 {
		e.credits.Store(int64(gap*sh.s.cfg.GossipPeriod.Seconds()) + 1)
	} else {
		e.credits.Store(0)
	}
}

// handleConnClosed sweeps per-connection routing state when a link dies:
// pending response routes and coalesced waiters pointing at the dead
// connection are dropped (entries for requests whose client went away must
// not live forever). Child registration is control-loop state; the control
// loop additionally posts cmdChildGone so the flow windows drop.
func (sh *shard) handleConnClosed(conn transport.Conn) {
	for key, pe := range sh.pending {
		if pe.conn == conn {
			delete(sh.pending, key)
		}
	}
	for _, fl := range sh.inflight {
		kept := fl.waiters[:0]
		for _, w := range fl.waiters {
			if w.conn != conn {
				kept = append(kept, w)
			}
		}
		fl.waiters = kept
	}
}

// sweepStale expires pending routes and in-flight fetches older than
// PendingTTL — responses that will never come (message loss, dead
// subtrees) must not pin table entries forever.
func (sh *shard) sweepStale() {
	ttl := sh.s.cfg.PendingTTL
	for key, pe := range sh.pending {
		if sh.now.Sub(pe.at) > ttl {
			delete(sh.pending, key)
		}
	}
	for doc, fl := range sh.inflight {
		if sh.now.Sub(fl.at) > ttl {
			delete(sh.inflight, doc)
		}
	}
}

// handleRequest implements the queued data path: the shard's router
// classifies the packet; Extract serves it here, Pass forwards it toward
// the home server. (Requests the fast path already answered never reach
// this point.)
func (sh *shard) handleRequest(ev event) {
	env := ev.env
	// Account per-child forwarded flow (A_j^d) when the request came from a
	// registered child, or local demand otherwise. Accounting happens
	// before single-flight coalescing, so the local protocol signals see
	// the full demand even when the upstream fetch is shared.
	sh.flowWindow(env.From, env.Doc).Add(sh.now, 1)

	if env.MinVersion > sh.docVer[env.Doc] && sh.sessionGate(ev) {
		return
	}
	if sh.rt.Classify(env.Doc) == router.Extract || sh.s.isRoot {
		sh.serveRequest(ev)
		return
	}
	sh.forwardUp(ev)
}

// sessionGate handles a request whose session token demands a newer version
// than this shard has seen (MinVersion > docVer): serving the local copy
// would violate read-my-writes, so the request bypasses it and rides the
// subtree-lease single-flight upward instead — any held body is marked
// stale (kept serving token-less readers) so the passing response re-admits
// the fresh copy through maybeLeaseRefresh, the same repair path
// invalidation uses. At the root there is no upward edge; the write that
// minted the token is still in flight toward us, so the request parks as a
// flight waiter until the version lands (answerParked) or the pending sweep
// expires it (a token claiming a version that never arrives). Reports
// whether the request was consumed; false means the token is unsatisfiable
// here and normal serving should proceed (an unpublished document at the
// root answers NotFound rather than parking forever).
func (sh *shard) sessionGate(ev event) bool {
	env := ev.env
	if sh.s.isRoot {
		if _, published := sh.s.bodyOf(env.Doc); !published && sh.docVer[env.Doc] == 0 {
			return false
		}
		sh.nSessionRefreshes++
		fl := sh.inflight[env.Doc]
		if fl == nil {
			fl = &flight{at: sh.now}
			sh.inflight[env.Doc] = fl
		}
		fl.waiters = append(fl.waiters, waiter{
			origin: env.Origin, reqID: env.ReqID, conn: ev.conn, minVer: env.MinVersion,
		})
		return true
	}
	sh.nSessionRefreshes++
	if sh.s.holdsCopy(env.Doc) {
		sh.staleDocs[env.Doc] = true
	}
	sh.forwardUp(ev)
	return true
}

// forwardUp relays a request toward the home server, remembering which
// connection to route the response back on. Concurrent requests for the
// same uncached document collapse into the existing in-flight fetch: they
// are parked as waiters and answered from its response instead of each
// traveling upstream (single-flight). A flight whose leader has gone
// unanswered past the retry horizon (a lost message, a healed partition)
// stops absorbing requests: the next one travels upstream as a fresh
// leader, keeping the accumulated waiters eligible for its response.
//
// While orphaned (no parent link), the request is parked — pending entry
// and flight created, nothing sent — and replayed by parentRestored once a
// failover lands, so losing a parent delays queued upward flow instead of
// dropping it.
func (sh *shard) forwardUp(ev event) {
	env := ev.env
	fl := sh.inflight[env.Doc]
	if fl != nil && sh.now.Sub(fl.at) < sh.flightRetry {
		fl.waiters = append(fl.waiters, waiter{origin: env.Origin, reqID: env.ReqID, conn: ev.conn, minVer: env.MinVersion})
		sh.nCoalesced++
		return
	}
	if fl == nil {
		fl = &flight{}
		sh.inflight[env.Doc] = fl
	}
	fl.at = sh.now
	sh.nForwarded++
	key := pendingKey{origin: env.Origin, reqID: env.ReqID}
	sh.pending[key] = pendingEntry{conn: ev.conn, at: sh.now, doc: env.Doc, hops: env.Hops, minVer: env.MinVersion}
	pl := sh.s.parentLink()
	if pl == nil {
		return // orphaned: queued for replay
	}
	fwd := netproto.GetEnvelope()
	*fwd = *env
	fwd.From = sh.s.cfg.ID
	fwd.To = pl.id
	fwd.Hops = env.Hops + 1
	sh.sendOn(pl.conn, fwd)
	netproto.PutEnvelope(fwd)
}

// answerWaiters fans a response out to every request coalesced behind the
// fetch that produced it. Waiters whose session floor exceeds the
// response's version must not be answered with it (a token-less leader's
// fetch can resolve to a copy older than what a coalesced session has
// already seen); they re-arm as a fresh flight instead.
func (sh *shard) answerWaiters(fl *flight, resp *netproto.Envelope) {
	if len(fl.waiters) == 0 {
		return
	}
	var unsatisfied []waiter
	out := netproto.GetEnvelope()
	for _, w := range fl.waiters {
		if w.minVer > resp.DocVersion && !resp.NotFound {
			unsatisfied = append(unsatisfied, w)
			continue
		}
		*out = netproto.Envelope{
			Kind: netproto.TypeResponse, From: sh.s.cfg.ID, To: w.origin,
			Doc: resp.Doc, Origin: w.origin, ReqID: w.reqID,
			ServedBy: resp.ServedBy, Hops: resp.Hops,
			Body: resp.Body, NotFound: resp.NotFound,
			DocVersion: resp.DocVersion,
		}
		sh.sendOn(w.conn, out)
	}
	netproto.PutEnvelope(out)
	if len(unsatisfied) > 0 {
		sh.refetchUnsatisfied(resp.Doc, unsatisfied)
	}
}

// refetchUnsatisfied re-arms session waiters a too-old response could not
// answer: they become a fresh flight whose first waiter leads a new fetch
// upward carrying the group's highest version floor — ancestors gate on it
// recursively, so the routed response is guaranteed to satisfy everyone
// left behind it. At the root there is nowhere to forward; the group stays
// parked until the claimed write lands (answerParked) or the sweep expires
// the flight.
func (sh *shard) refetchUnsatisfied(doc core.DocID, ws []waiter) {
	fl := &flight{at: sh.now, waiters: ws}
	sh.inflight[doc] = fl
	if sh.s.isRoot {
		return
	}
	lead := ws[0]
	fl.waiters = ws[1:]
	var maxVer uint64
	for _, w := range ws {
		if w.minVer > maxVer {
			maxVer = w.minVer
		}
	}
	sh.nForwarded++
	sh.pending[pendingKey{origin: lead.origin, reqID: lead.reqID}] = pendingEntry{conn: lead.conn, at: sh.now, doc: doc, minVer: maxVer}
	pl := sh.s.parentLink()
	if pl == nil {
		return // orphaned: replayed by parentRestored
	}
	fwd := netproto.GetEnvelope()
	*fwd = netproto.Envelope{
		Kind: netproto.TypeRequest, From: sh.s.cfg.ID, To: pl.id,
		Doc: doc, Origin: lead.origin, ReqID: lead.reqID, MinVersion: maxVer,
	}
	sh.sendOn(pl.conn, fwd)
	netproto.PutEnvelope(fwd)
}

// admit caches a handed-over copy (a delegation, tunnel reply or
// promotion). The sender held ver, so a write frame at or below it is a
// duplicate here: the handoff advances the write gate, then admits the
// copy like any other.
func (sh *shard) admit(doc core.DocID, body []byte, ver uint64) bool {
	if ver >= sh.docVer[doc] && ver > sh.gateVer[doc] {
		sh.gateVer[doc] = ver
	}
	return sh.admitCopy(doc, body, ver)
}

// admitCopy caches a document copy under the byte budget and wires the
// eviction feedback into the protocol. It returns whether the copy was
// admitted (a body that cannot fit is rejected, not cached).
//
// For every displaced document: the fast path is cut immediately (the
// publication tombstone), and the owning shard — usually this one, always
// this one when the cache striping is aligned — tears down the admission
// filter so requests resume traveling toward the home server, drops the
// serve target and rate window, and hints the eviction to the parent with
// the abandoned target rate so a surviving copy upstream absorbs the duty
// instead of waiting a diffusion period to notice the imbalance.
func (sh *shard) admitCopy(doc core.DocID, body []byte, ver uint64) bool {
	if ver < sh.docVer[doc] {
		// A stale body (a delegation or tunnel reply that raced a
		// republish): refuse it — admitting it would roll the document
		// back behind the version the tree has already converged on.
		sh.nStaleDrops++
		return false
	}
	if sh.bumpDocVer(doc, ver) && sh.s.disk != nil {
		sh.s.disk.Delete(doc) // any resident disk body predates ver
	}
	// Write through to the disk tier first, so the body is crash-safe (and
	// eviction-safe) before any duty is accepted for it.
	sh.diskWriteThrough(doc, body)
	evs, ok := sh.s.cache.PutVersion(doc, body, ver)
	sh.applyEvictions(evs)
	if ok {
		sh.installFilter(doc)
		sh.publish(doc, body, false, ver)
		sh.journalAdmit(doc)
		sh.journalVersion(doc, ver)
		return true
	}
	if sh.s.diskHas(doc) {
		// Too big (or too contended) for memory, but captured by the disk
		// tier: the node still accepts the copy and its duty — this is what
		// lets a corpus larger than RAM keep serving below the home server.
		// No publication: the fast path needs an in-memory body; the read
		// path serves the copy from disk until a hit re-admits it.
		sh.installFilter(doc)
		sh.journalAdmit(doc)
		sh.journalVersion(doc, ver)
		return true
	}
	return false
}

// applyEvictions runs the protocol-side cleanup for a Put's displaced
// documents: cut the fast path now, route the owner-side teardown (or
// spill) to each document's owning shard.
func (sh *shard) applyEvictions(evs []cachestore.Eviction) {
	for _, ev := range evs {
		sh.s.nEvicted.Add(1)
		sh.s.nEvictedBytes.Add(int64(ev.Bytes))
		owner := sh.s.shardFor(ev.Doc)
		owner.killPub(ev.Doc) // stop fast-path serves of the stale body now
		if owner == sh {
			sh.dropEvicted(ev.Doc)
		} else {
			owner.postEvicted(ev.Doc)
		}
	}
}

// dropEvicted is the owner-side eviction cleanup: filter down, publication
// entry out, duty handed to the parent. Skipped when the document was
// re-admitted before the cleanup drained (the note is then stale).
func (sh *shard) dropEvicted(doc core.DocID) {
	if sh.s.cache.Contains(doc) {
		// Re-admitted since the note was posted. The evictor's killPub may
		// have raced the re-admission and tombstoned the FRESH publication
		// entry — which sits in no tombstone list and would otherwise stay
		// dead (fast path disabled) forever. Republish from the live copy.
		if e := (*sh.pub.Load())[doc]; e != nil && e.dead.Load() {
			if body, ver, ok := sh.s.cache.PeekVersion(doc); ok {
				sh.publish(doc, body, false, ver)
				sh.refreshCredit(doc)
			}
		}
		return
	}
	if sh.s.diskHas(doc) {
		// Spilled, not lost: the disk tier still holds the body (admission
		// wrote through), so the node keeps the document's duty and filter.
		// Only the fast path goes down — it needs an in-memory body — and
		// the read path serves memory → disk until a hit re-admits it.
		sh.unpublish(doc)
		sh.s.nSpills.Add(1)
		return
	}
	sh.rt.Remove(doc)
	sh.unpublish(doc)
	residual := sh.targets[doc]
	delete(sh.targets, doc)
	delete(sh.served, doc)
	sh.journalDrop(doc)
	// A copy displaced before accruing any serve duty has nothing for the
	// parent to absorb; hintUp skips the no-op (and parks the hint while
	// orphaned).
	sh.hintUp(doc, residual)
}

func (sh *shard) serveRequest(ev event) {
	env := ev.env
	body, ver, cached := sh.s.cache.GetVersion(env.Doc)
	if !cached {
		if dbody, ok := sh.s.diskGet(env.Doc); ok {
			// Disk-tier hit: serve the spilled copy and re-admit it to
			// memory so subsequent requests take the fast path again (the
			// disk copy stays — bodies are immutable, demotion is free).
			sh.nDiskHits++
			body, ver, cached = dbody, sh.jVers[env.Doc], true
			sh.readmitFromDisk(env.Doc, body, ver)
		}
	}
	if !cached && !sh.s.isRoot {
		// The filter extracted a document we no longer hold (install/evict
		// race); keep the request moving toward the home server.
		sh.forwardUp(ev)
		return
	}
	now := sh.now
	sh.nServed++
	sh.totalServed.Add(now, 1)
	sh.servedWindow(env.Doc).Add(now, 1)
	resp := netproto.GetEnvelope()
	*resp = netproto.Envelope{
		Kind: netproto.TypeResponse, From: sh.s.cfg.ID, To: env.Origin,
		Doc: env.Doc, Origin: env.Origin, ReqID: env.ReqID,
		ServedBy: sh.s.cfg.ID, Hops: env.Hops,
		Body: body, NotFound: !cached, DocVersion: ver,
	}
	sh.sendOn(ev.conn, resp)
	netproto.PutEnvelope(resp)
}

// readmitFromDisk promotes a disk-served body back into memory so the next
// request takes the fast path. No journal traffic: the document was already
// journaled as admitted, and the disk copy stays where it is. If memory
// still refuses the body (budget smaller than the body), the document simply
// stays disk-resident.
func (sh *shard) readmitFromDisk(doc core.DocID, body []byte, ver uint64) {
	evs, ok := sh.s.cache.PutVersion(doc, body, ver)
	sh.applyEvictions(evs)
	if ok {
		sh.publish(doc, body, false, ver)
		sh.refreshCredit(doc)
	}
}

// installFilter wires the admission decision for one cached document: the
// packet is extracted while the measured served rate lags the target rate.
// The filter runs on this shard's loop, so it reads the loop-owned clock
// instead of taking a timestamp per classified packet.
func (sh *shard) installFilter(doc core.DocID) {
	sh.rt.Install(doc, router.FilterFunc(func(d core.DocID) bool {
		w := sh.served[d]
		if w == nil {
			return sh.targets[d] > 0
		}
		return w.Rate(sh.now) < sh.targets[d]
	}))
}

// delegateOut executes one control-loop delegation decision on the owning
// shard: drop the local target, ship the duty (and body) to the child.
// Decisions are computed from snapshots and so may be a tick stale; the
// shard re-validates what still holds.
func (sh *shard) delegateOut(child int, doc core.DocID, rate float64) {
	conn := sh.s.childConn(child)
	if conn == nil || !sh.s.holdsCopy(doc) {
		return
	}
	sh.targets[doc] -= rate
	if sh.targets[doc] < 0 {
		sh.targets[doc] = 0
	}
	sh.nDelegOut++
	sh.dutyLedger(child)[doc] += rate // credited back if the child sheds or dies
	body, ver, _ := sh.heldCopy(doc)
	sh.sendOn(conn, &netproto.Envelope{
		Kind: netproto.TypeDelegate, From: sh.s.cfg.ID, To: child,
		Doc: doc, Rate: rate, Body: body, DocVersion: ver,
	})
}

// shedOut executes one control-loop shed decision: move duty up to the
// parent. Re-validated like delegateOut: if the copy was evicted since the
// snapshot, its residual duty already traveled upstream in the evict hint
// and a shed here would hand the parent the same duty twice.
func (sh *shard) shedOut(doc core.DocID, rate float64) {
	pl := sh.s.parentLink()
	if pl == nil || !sh.s.holdsCopy(doc) {
		return
	}
	sh.targets[doc] -= rate
	if sh.targets[doc] < 0 {
		sh.targets[doc] = 0
	}
	sh.nShedOut++
	sh.sendOn(pl.conn, &netproto.Envelope{
		Kind: netproto.TypeShed, From: sh.s.cfg.ID, To: pl.id,
		Doc: doc, Rate: rate,
	})
}

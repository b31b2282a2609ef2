package server

// Mutable documents: versioned republish and tree-diffused invalidation.
//
// A write enters the tree at the origin (root) as a republish (new body,
// new version) or an invalidate (version only) and diffuses down the same
// filter/target edges the duty protocol maintains. Each node version-gates
// the frame against its per-document high-water mark, so duplicates and
// reordered stale frames are dropped, never applied. A copy-holding node
// either swaps the new body into both tiers in place (republish) or drops
// the stale body while KEEPING its admission filter, targets and duty
// (invalidate) — requests then miss locally and travel upward through the
// existing single-flight table, which acts as the subtree's lease: however
// many clients storm a freshly invalidated document, one fetch per shard
// travels toward the origin, and the response re-admits the fresh copy for
// everyone coalesced behind it.
//
// Body frames ride only the edges the duty ledger says have copies below
// them (the delegation/promotion edges); every other child gets a cheap
// version-only invalidate and forwards it on, so deeper copies the ledger
// cannot see (tunneled ones, for instance) still converge — they drop to
// stale and lease-refresh on the next demand.

import (
	"webwave/internal/core"
	"webwave/internal/netproto"
)

// bumpDocVer advances the shard's latest-known version for doc, reporting
// whether ver was news. Versions only move forward.
func (sh *shard) bumpDocVer(doc core.DocID, ver uint64) bool {
	if ver <= sh.docVer[doc] {
		return false
	}
	sh.docVer[doc] = ver
	return true
}

// gateWrite admits a write frame for ver unless this node already applied
// a write or took a handoff at least as new (a duplicate or a reordered
// stale frame). A version seen only on a passing response does not count:
// that response refreshed (or dropped) the held copy, but the children
// still need the write. Reports whether ver is also news to the held copy;
// if not, the write only diffuses.
func (sh *shard) gateWrite(doc core.DocID, ver uint64) (apply, newer bool) {
	if ver <= sh.gateVer[doc] {
		sh.nStaleDrops++
		return false, false
	}
	sh.gateVer[doc] = ver
	return true, sh.bumpDocVer(doc, ver)
}

// handleRepublish applies one versioned body push: gate on the version,
// refresh (origin or copy-holder) locally, diffuse down the tree.
func (sh *shard) handleRepublish(env *netproto.Envelope) {
	doc, ver := env.Doc, env.DocVersion
	apply, newer := sh.gateWrite(doc, ver)
	if !apply {
		return
	}
	sh.nRepublishesIn++
	var body []byte
	if len(env.Body) > 0 {
		body = env.Body // safe to retain: recycled envelopes drop, never reuse, Body
	}
	switch {
	case !newer:
	case sh.s.isRoot:
		sh.originWrite(doc, body, ver)
		sh.answerParked(doc)
	case sh.s.holdsCopy(doc):
		sh.replaceCopy(doc, body, ver)
	}
	sh.diffuseDown(doc, ver, body)
}

// replaceCopy installs body at version ver over the held copy of doc. With
// no body to install (or neither tier keeping it) it degrades to an
// invalidation, so the stale copy never serves again.
func (sh *shard) replaceCopy(doc core.DocID, body []byte, ver uint64) {
	if body == nil || !sh.refreshCopy(doc, body, ver) {
		sh.invalidateLocal(doc)
	}
}

// handleInvalidate applies one version-only write: gate, drop any local
// stale copy (duty and filter stay), diffuse version-only frames down. At
// the origin an injected invalidate may carry the new body — the root must
// always serve the latest version — but it never travels further.
func (sh *shard) handleInvalidate(env *netproto.Envelope) {
	doc, ver := env.Doc, env.DocVersion
	apply, newer := sh.gateWrite(doc, ver)
	if !apply {
		return
	}
	sh.nInvalidationsIn++
	switch {
	case !newer:
	case sh.s.isRoot && len(env.Body) > 0:
		sh.originWrite(doc, env.Body, ver)
	default:
		sh.invalidateLocal(doc)
	}
	if sh.s.isRoot {
		sh.answerParked(doc)
	}
	sh.diffuseDown(doc, ver, nil)
}

// originWrite installs a new version at the home server: the pinned origin
// copy swaps in place and stays immune to eviction. A version-only frame
// cannot install anything — the previous origin body keeps serving (the
// origin is never stale relative to itself; its copy IS the document until
// a body arrives).
func (sh *shard) originWrite(doc core.DocID, body []byte, ver uint64) {
	if body == nil {
		return
	}
	if !sh.s.cache.PinVersion(doc, body, ver) {
		return
	}
	sh.rt.Install(doc, nil) // the home extracts everything it owns
	sh.publish(doc, body, true, ver)
}

// refreshCopy swaps a republished body into both tiers in place, keeping
// the document's filter, targets and duty exactly as they were — a
// republish moves data, not duty. Reports whether at least one tier holds
// the new body.
func (sh *shard) refreshCopy(doc core.DocID, body []byte, ver uint64) bool {
	if sh.s.disk != nil {
		// Disk bodies are immutable per version; replace, don't touch.
		sh.s.disk.Delete(doc)
		sh.diskWriteThrough(doc, body)
	}
	evs, inMem := sh.s.cache.PutVersion(doc, body, ver)
	sh.applyEvictions(evs)
	if inMem {
		sh.publish(doc, body, false, ver)
		sh.refreshCredit(doc)
	} else {
		// Memory refused the new body (it outgrew the budget): the fast path
		// must not keep serving the old one.
		sh.unpublish(doc)
	}
	sh.journalVersion(doc, ver)
	return inMem || sh.s.diskHas(doc)
}

// invalidateLocal drops the stale body from both tiers while keeping the
// document's admission filter, targets and duty. Requests now miss locally
// and travel upward through the single-flight table — the lease — and the
// response re-admits the fresh copy (maybeLeaseRefresh).
func (sh *shard) invalidateLocal(doc core.DocID) {
	if !sh.s.holdsCopy(doc) {
		return
	}
	sh.unpublish(doc)
	sh.s.cache.Delete(doc)
	if sh.s.disk != nil {
		sh.s.disk.Delete(doc)
	}
	sh.staleDocs[doc] = true
	// The node no longer holds a body in any tier; a restart before the
	// lease refresh recovers without this document, like any dropped copy.
	sh.journalDrop(doc)
}

// diffuseDown forwards a write down every child edge. Children whose duty
// ledger shows delegated duty for doc likely hold a copy below them, so
// they get the full republish (body included); the rest get a version-only
// invalidate — any deeper copy the ledger cannot see drops to stale and
// lease-refreshes on its next demand.
func (sh *shard) diffuseDown(doc core.DocID, ver uint64, body []byte) {
	cv := sh.s.children.Load()
	if cv == nil {
		return
	}
	out := netproto.GetEnvelope()
	for id, conn := range cv.conns {
		kind, b := netproto.TypeInvalidate, []byte(nil)
		if body != nil && sh.childDuty[id][doc] > 0 {
			kind, b = netproto.TypeRepublish, body
		}
		*out = netproto.Envelope{
			Kind: kind, From: sh.s.cfg.ID, To: id,
			Doc: doc, DocVersion: ver, Body: b,
		}
		sh.sendOn(conn, out)
	}
	netproto.PutEnvelope(out)
}

// maybeLeaseRefresh re-admits a stale copy from a response passing through:
// the single-flight fetch that produced it is the subtree's lease, so the
// refreshed copy costs the origin one fetch however many clients stormed
// the document here.
func (sh *shard) maybeLeaseRefresh(env *netproto.Envelope) {
	if !sh.staleDocs[env.Doc] || env.NotFound || len(env.Body) == 0 {
		return
	}
	if env.DocVersion < sh.docVer[env.Doc] {
		return // upstream served an older version: keep waiting for the write
	}
	if sh.admitCopy(env.Doc, env.Body, env.DocVersion) {
		delete(sh.staleDocs, env.Doc)
		sh.nLeaseRefreshes++
		sh.refreshCredit(env.Doc)
	}
}

// answerParked serves session requests parked at the root (sessionGate) for
// a version that just arrived: once the origin copy's version satisfies a
// waiter's floor it is answered from that copy. Waiters demanding a
// still-newer version stay parked for the next write (or the sweep's
// expiry).
func (sh *shard) answerParked(doc core.DocID) {
	fl := sh.inflight[doc]
	if fl == nil || len(fl.waiters) == 0 {
		return
	}
	body, ver, ok := sh.heldCopy(doc)
	if !ok {
		return
	}
	var kept []waiter
	out := netproto.GetEnvelope()
	for _, w := range fl.waiters {
		if w.minVer > ver {
			kept = append(kept, w)
			continue
		}
		sh.nServed++
		sh.totalServed.Add(sh.now, 1)
		sh.servedWindow(doc).Add(sh.now, 1)
		*out = netproto.Envelope{
			Kind: netproto.TypeResponse, From: sh.s.cfg.ID, To: w.origin,
			Doc: doc, Origin: w.origin, ReqID: w.reqID,
			ServedBy: sh.s.cfg.ID, Body: body, DocVersion: ver,
		}
		sh.sendOn(w.conn, out)
	}
	netproto.PutEnvelope(out)
	if len(kept) == 0 {
		delete(sh.inflight, doc)
		return
	}
	fl.waiters = kept
}

// journalVersion records the held copy's version, deduplicated per
// version, so a warm restart recovers the version alongside the body.
func (sh *shard) journalVersion(doc core.DocID, ver uint64) {
	j := sh.s.journal
	if j == nil || ver == 0 {
		return
	}
	if sh.jVers[doc] == ver {
		return
	}
	if sh.jVers == nil {
		sh.jVers = make(map[core.DocID]uint64, 16)
	}
	sh.jVers[doc] = ver
	_ = j.AppendVersion(doc, ver)
}

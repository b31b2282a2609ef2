package server

// The disk persistence tier (Config.DataDir). Two pieces from
// internal/diskstore hang off the server: a byte-budgeted body store that
// keeps evicted-but-warm documents on disk, and an append-only journal of
// admissions, drops and duty targets. Integration is deliberately thin:
//
//   - Admission writes through to disk (the body is crash-safe before any
//     duty is accepted), so a later memory eviction is free — cachestore's
//     evictions carry no body.
//   - A memory eviction whose body is still on disk becomes a spill: the
//     fast path goes down but the filter and targets stay, and the read
//     path serves memory → disk → parent, re-admitting on the first disk
//     hit. Only when BOTH tiers lose the body does the old teardown (duty
//     hinted upstream) run.
//   - On restart, New replays the journal against the surviving body
//     files, re-admits what fits in memory (the rest stays disk-resident),
//     restores each document's target, and Start re-announces the whole
//     held set as reclaim frames — exactly the failover replay path, zero
//     new repair protocol. A torn journal tail is truncated, never fatal.

import (
	"fmt"
	"path/filepath"

	"webwave/internal/core"
	"webwave/internal/diskstore"
)

// openPersist opens the disk tier under cfg.DataDir and runs warm
// recovery. Called from New, single-threaded, before any loop starts.
func (s *Server) openPersist() error {
	disk, err := diskstore.Open(diskstore.Config{
		Dir:         filepath.Join(s.cfg.DataDir, "bodies"),
		BudgetBytes: s.cfg.DiskBudgetBytes,
	})
	if err != nil {
		return fmt.Errorf("server %d: disk tier: %w", s.cfg.ID, err)
	}
	journal, state, err := diskstore.OpenJournal(filepath.Join(s.cfg.DataDir, "journal.wal"))
	if err != nil {
		return fmt.Errorf("server %d: journal: %w", s.cfg.ID, err)
	}
	s.disk = disk
	s.journal = journal
	s.recoverWarm(state)
	return nil
}

// recoverWarm rebuilds cache and duty state from a previous run: for each
// journaled document whose body survived on disk, re-admit to memory
// (under the budget; the rest stays disk-resident), reinstall the
// admission filter and restore the last journaled target and copy
// version — so a warm restart resumes serving the version it held, and
// version gating keeps working across the kill. The journal is then
// compacted to the recovered set, so it stays proportional to the held
// documents across restart cycles.
func (s *Server) recoverWarm(state map[core.DocID]diskstore.DocState) {
	live := make(map[core.DocID]diskstore.DocState, len(state))
	for doc, st := range state {
		if s.isRoot {
			if _, pinned := s.cfg.Docs[doc]; pinned {
				continue // origin copies republish from config, not disk
			}
		}
		body, ok := s.disk.Peek(doc)
		if !ok {
			continue // journaled as held, but the body tier dropped it
		}
		sh := s.shardFor(doc)
		if st.Version > 0 {
			sh.docVer[doc] = st.Version
			sh.gateVer[doc] = st.Version
			if sh.jVers == nil {
				sh.jVers = make(map[core.DocID]uint64, 16)
			}
			sh.jVers[doc] = st.Version
		}
		evs, inMem := s.cache.PutVersion(doc, body, st.Version)
		sh.applyEvictions(evs) // earlier-recovered docs may spill back to disk-only
		sh.installFilter(doc)
		if st.Rate > 0 {
			sh.targets[doc] = st.Rate
		}
		if sh.jTargets == nil {
			sh.jTargets = make(map[core.DocID]float64, 16)
		}
		sh.jTargets[doc] = st.Rate
		if inMem {
			sh.publish(doc, body, false, st.Version)
		}
		live[doc] = st
		s.warmDocs++
	}
	_ = s.journal.Compact(live)
}

// closePersist flushes and closes the journal. Called from Stop after the
// loops have drained.
func (s *Server) closePersist() {
	if s.journal != nil {
		_ = s.journal.Close()
	}
}

// holdsCopy reports whether this node holds a serveable copy of doc in
// either tier — the predicate duty-acceptance decisions (delegations,
// sheds, evict-hint absorption, claims) use, so a disk-resident copy
// keeps carrying duty.
func (s *Server) holdsCopy(doc core.DocID) bool {
	return s.cache.Contains(doc) || s.diskHas(doc)
}

// diskHas reports disk-tier residency (false with the tier disabled).
func (s *Server) diskHas(doc core.DocID) bool {
	return s.disk != nil && s.disk.Contains(doc)
}

// diskGet reads a body from the disk tier, counting a hit and refreshing
// its recency.
func (s *Server) diskGet(doc core.DocID) ([]byte, bool) {
	if s.disk == nil {
		return nil, false
	}
	return s.disk.Get(doc)
}

// heldCopy returns the held body of doc and the version stored with it,
// from whichever tier has it, with Peek semantics in both — copy handoffs
// are not demand. The disk tier stores bodies only; a disk-resident copy's
// version is the one journaled with it.
func (sh *shard) heldCopy(doc core.DocID) ([]byte, uint64, bool) {
	if body, ver, ok := sh.s.cache.PeekVersion(doc); ok {
		return body, ver, true
	}
	if sh.s.disk == nil {
		return nil, 0, false
	}
	body, ok := sh.s.disk.Peek(doc)
	return body, sh.jVers[doc], ok
}

// bodyOf returns a held body from whichever tier has it, with Peek
// semantics in both — copy handoffs are not demand.
func (s *Server) bodyOf(doc core.DocID) ([]byte, bool) {
	if body, ok := s.cache.Peek(doc); ok {
		return body, true
	}
	if s.disk == nil {
		return nil, false
	}
	return s.disk.Peek(doc)
}

// diskWriteThrough spills an admitted body to the disk tier at admit time
// rather than evict time: the eviction callback carries no body, and
// writing now makes the copy SIGKILL-safe from the moment duty is
// accepted for it. Bodies are immutable, so a repeat write-through of a
// resident document costs a recency touch, not I/O. A document the disk
// tier displaces to make room — and which memory no longer holds — gets
// the same owner-side teardown a memory eviction runs.
func (sh *shard) diskWriteThrough(doc core.DocID, body []byte) {
	s := sh.s
	if s.disk == nil {
		return
	}
	evs, _ := s.disk.Put(doc, body)
	for _, ev := range evs {
		if s.cache.Contains(ev.Doc) {
			continue // memory still holds it: the document stays admitted
		}
		owner := s.shardFor(ev.Doc)
		owner.killPub(ev.Doc)
		if owner == sh {
			sh.dropEvicted(ev.Doc)
		} else {
			owner.postEvicted(ev.Doc)
		}
	}
}

// journalAdmit records that this node now holds doc (either tier). The
// jTargets entry doubles as the dedupe: one admit record per admission
// lifecycle, however many delegate frames re-send the body.
func (sh *shard) journalAdmit(doc core.DocID) {
	j := sh.s.journal
	if j == nil {
		return
	}
	rate := sh.targets[doc]
	if last, ok := sh.jTargets[doc]; ok && last == rate {
		return
	}
	_ = j.Append(diskstore.OpAdmit, doc, rate)
	if sh.jTargets == nil {
		sh.jTargets = make(map[core.DocID]float64, 16)
	}
	sh.jTargets[doc] = rate
}

// journalDrop records that no tier holds doc anymore.
func (sh *shard) journalDrop(doc core.DocID) {
	j := sh.s.journal
	if j == nil {
		return
	}
	if _, ok := sh.jTargets[doc]; !ok {
		return // never journaled as admitted (e.g. pinned origin copy)
	}
	_ = j.Append(diskstore.OpDrop, doc, 0)
	delete(sh.jTargets, doc)
	delete(sh.jVers, doc) // a later re-admission journals its version afresh
}

// journalTick runs on the shard's maintenance tick: append a target
// record for every admitted document whose duty moved since the last
// tick, then push pending records toward stable storage (rate-limited
// inside MaybeSync).
func (sh *shard) journalTick() {
	j := sh.s.journal
	if j == nil {
		return
	}
	const eps = 1e-6
	for doc, last := range sh.jTargets {
		rate, live := sh.targets[doc]
		if !live {
			rate = 0 // target dissolved without a drop (a demotion): journal the zero
		}
		if rate-last < eps && last-rate < eps {
			continue
		}
		_ = j.Append(diskstore.OpTarget, doc, rate)
		sh.jTargets[doc] = rate
	}
	j.MaybeSync(sh.now)
}

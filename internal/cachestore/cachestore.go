// Package cachestore provides the capacity-bounded document store behind a
// live WebWave cache server. The paper assumes unlimited storage; real
// deployments are byte-budgeted, and *which* copies survive under memory
// pressure decides how well the wave balances load once the hot set is
// wider than the aggregate cache. The store is sharded (lock striping for
// concurrent callers), enforces a byte budget incrementally (no O(n)
// recomputation at scrape time), and supports three replacement policies:
//
//   - LRU evicts the least-recently-used document — the classic baseline.
//   - Heat evicts the lowest request-rate-per-byte document, using a
//     caller-supplied heat source (the server wires in its sliding rate
//     windows) — the WebWave-native policy: the wave recedes from copies
//     demand no longer flows through.
//   - GDSF (Greedy-Dual-Size-Frequency) evicts the lowest
//     clock+frequency/size priority with inflation-clock aging — the
//     cost-aware CDN standard.
//
// Entries can be pinned: a home server pins the documents it publishes so
// origin copies are immune to eviction regardless of pressure.
//
// Victim selection is deterministic (recency-list scan with strict-less
// comparison, ties resolved toward the LRU end), so single-goroutine
// callers — the server main loop, the fast-forward benchmark replayers —
// get byte-identical behavior run over run.
package cachestore

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"webwave/internal/core"
)

// Policy names a replacement policy.
type Policy string

// Replacement policies.
const (
	// LRU evicts the least-recently-used unpinned document.
	LRU Policy = "lru"
	// Heat evicts the unpinned document with the lowest request rate per
	// byte, per the configured HeatOf source.
	Heat Policy = "heat"
	// GDSF evicts by Greedy-Dual-Size-Frequency priority
	// (clock + hits/size), aging the shard clock to each victim's priority.
	GDSF Policy = "gdsf"
)

// ParsePolicy converts a flag/spec string to a Policy ("" means LRU).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", LRU:
		return LRU, nil
	case Heat:
		return Heat, nil
	case GDSF:
		return GDSF, nil
	default:
		return "", fmt.Errorf("cachestore: unknown policy %q (want lru, heat or gdsf)", s)
	}
}

// Config parameterizes a Store.
type Config struct {
	// BudgetBytes bounds the total bytes of cached bodies; 0 = unlimited.
	// The budget is split evenly across shards, so a single body larger
	// than BudgetBytes/Shards is rejected rather than cached.
	BudgetBytes int64
	// Shards is the number of lock-striped segments; default 8.
	Shards int
	// Policy selects the replacement policy; default LRU.
	Policy Policy
	// HeatOf reports a document's current request rate (req/s) for the
	// Heat policy. It is called during Put with a shard lock held; callers
	// sharing the store across goroutines must supply a thread-safe
	// implementation (the live server feeds it from atomic per-shard
	// snapshots rather than loop-owned state). nil reads as zero heat
	// (Heat degrades toward FIFO with LRU tie-breaking).
	HeatOf func(core.DocID) float64
	// ShardOf optionally supplies each document's stripe (taken modulo
	// Shards); nil uses the internal FNV hash. A caller that partitions its
	// own per-document state — the server's doc-sharded event loops — can
	// align the store's striping with that partition, so a Put's evictions
	// fall in the caller's own partition (victim locality) whenever the
	// stripe counts match.
	ShardOf func(core.DocID) uint32
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Policy == "" {
		c.Policy = LRU
	}
	return c
}

// Eviction records one document displaced by a Put.
type Eviction struct {
	Doc   core.DocID
	Bytes int
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits         int64 // Get found the document
	Misses       int64 // Get did not
	Evictions    int64 // documents displaced by budget pressure
	EvictedBytes int64 // bytes those documents held
	Rejected     int64 // Puts refused (body larger than a shard budget)
}

// entry is one cached document, linked into its shard's recency list.
type entry struct {
	doc        core.DocID
	body       []byte
	prev, next *entry
	pinned     bool
	version    uint64  // document version of this copy (0 = never republished)
	hits       int64   // Get count since insert (GDSF frequency)
	pri        float64 // GDSF priority at last touch
}

// shard is one lock-striped segment.
type shard struct {
	mu      sync.Mutex
	entries map[core.DocID]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
	clock   float64 // GDSF inflation clock
}

// Store is a sharded, byte-budgeted document cache. Safe for concurrent
// use (subject to the HeatOf caveat in Config).
type Store struct {
	cfg         Config
	shardBudget int64
	shards      []shard

	bytes    atomic.Int64 // maintained incrementally on every mutation
	maxBytes atomic.Int64 // high-water mark of bytes

	hits, misses           atomic.Int64
	evictions, evictedByte atomic.Int64
	rejected               atomic.Int64
}

// New builds a Store from cfg.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, shards: make([]shard, cfg.Shards)}
	if cfg.BudgetBytes > 0 {
		// Floor so the shard budgets never sum above the configured budget:
		// the total-bytes invariant is strict. A budget smaller than the
		// shard count still gets 1 byte per shard rather than unlimited.
		s.shardBudget = cfg.BudgetBytes / int64(cfg.Shards)
		if s.shardBudget < 1 {
			s.shardBudget = 1
		}
	}
	for i := range s.shards {
		s.shards[i].entries = make(map[core.DocID]*entry, 16)
	}
	return s
}

// Policy returns the configured replacement policy.
func (s *Store) Policy() Policy { return s.cfg.Policy }

// BudgetBytes returns the configured byte budget (0 = unlimited).
func (s *Store) BudgetBytes() int64 { return s.cfg.BudgetBytes }

func (s *Store) shardFor(doc core.DocID) *shard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	if s.cfg.ShardOf != nil {
		return &s.shards[s.cfg.ShardOf(doc)%uint32(len(s.shards))]
	}
	h := fnv.New32a()
	h.Write([]byte(doc))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Get returns the cached body and touches the entry (recency, frequency,
// GDSF priority). The returned slice is the stored body; callers must
// treat it as immutable.
func (s *Store) Get(doc core.DocID) ([]byte, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	e, ok := sh.entries[doc]
	if !ok {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	sh.touch(e)
	body := e.body
	sh.mu.Unlock()
	s.hits.Add(1)
	return body, true
}

// Peek returns the cached body without touching recency or frequency —
// for reads that should not look like demand (e.g. handing a copy to a
// delegation message).
func (s *Store) Peek(doc core.DocID) ([]byte, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[doc]; ok {
		return e.body, true
	}
	return nil, false
}

// PeekVersion is Peek plus the copy's version number.
func (s *Store) PeekVersion(doc core.DocID) ([]byte, uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[doc]; ok {
		return e.body, e.version, true
	}
	return nil, 0, false
}

// Contains reports presence without touching recency.
func (s *Store) Contains(doc core.DocID) bool {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[doc]
	return ok
}

// Put inserts or refreshes a document and returns any entries evicted to
// make room. ok is false when the body cannot fit (larger than a shard's
// budget, or everything else in the shard is pinned) — the document is NOT
// cached in that case and the caller must not install admission state for
// it. The entry just inserted is never its own victim.
func (s *Store) Put(doc core.DocID, body []byte) (evicted []Eviction, ok bool) {
	return s.put(doc, body, 0, false, false)
}

// PutVersion is Put for a specific document version: the copy is stored
// with the given version number, refusing downgrades — a Put carrying a
// version below an existing copy's is dropped (ok=false, nothing evicted),
// so a delayed delegation can never roll a republished document back.
func (s *Store) PutVersion(doc core.DocID, body []byte, version uint64) (evicted []Eviction, ok bool) {
	return s.put(doc, body, version, false, true)
}

// Pin inserts a document immune to eviction — the home server's published
// originals. Pinned entries count toward Bytes but are exempt from the
// budget check: origin copies must exist for the protocol to be correct.
func (s *Store) Pin(doc core.DocID, body []byte) {
	s.put(doc, body, 0, true, false)
}

// PinVersion pins a specific version of a document — the origin's copy
// after a republish. Downgrades are refused as in PutVersion.
func (s *Store) PinVersion(doc core.DocID, body []byte, version uint64) bool {
	_, ok := s.put(doc, body, version, true, true)
	return ok
}

// Version reports the version of the cached copy, without touching
// recency. ok is false when the document is not cached.
func (s *Store) Version(doc core.DocID) (uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[doc]; ok {
		return e.version, true
	}
	return 0, false
}

// GetVersion is Get plus the copy's version number.
func (s *Store) GetVersion(doc core.DocID) ([]byte, uint64, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	e, ok := sh.entries[doc]
	if !ok {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, 0, false
	}
	sh.touch(e)
	body, ver := e.body, e.version
	sh.mu.Unlock()
	s.hits.Add(1)
	return body, ver, true
}

// put inserts or refreshes doc. With setVersion, the entry's version is set
// to version (downgrades refused); without it, a refresh keeps the entry's
// existing version — unversioned callers cannot regress a versioned copy.
func (s *Store) put(doc core.DocID, body []byte, version uint64, pin, setVersion bool) ([]Eviction, bool) {
	sh := s.shardFor(doc)
	sh.mu.Lock()

	// A body that can never fit is rejected before any eviction work, on
	// the refresh path too — otherwise a doomed refresh would wipe the
	// shard's other entries first and reject anyway.
	if !pin && s.shardBudget > 0 && int64(len(body)) > s.shardBudget {
		if e, found := sh.entries[doc]; !found || !e.pinned {
			sh.mu.Unlock()
			s.rejected.Add(1)
			return nil, false
		}
	}

	if e, found := sh.entries[doc]; found {
		if setVersion && version < e.version {
			sh.mu.Unlock()
			return nil, false
		}
		delta := int64(len(body) - len(e.body))
		if !pin && !e.pinned && s.shardBudget > 0 && delta > 0 && sh.bytes+delta > s.shardBudget {
			// Refresh that would burst the budget: evict around it first.
			evs := sh.makeRoom(s, delta, e)
			if sh.bytes+delta > s.shardBudget {
				sh.mu.Unlock()
				s.rejected.Add(1)
				return evs, false
			}
			e.body = body
			if setVersion {
				e.version = version
			}
			sh.bytes += delta
			sh.touch(e)
			sh.mu.Unlock()
			s.addBytes(delta)
			return evs, true
		}
		e.body = body
		e.pinned = e.pinned || pin
		if setVersion {
			e.version = version
		}
		sh.bytes += delta
		sh.touch(e)
		sh.mu.Unlock()
		s.addBytes(delta)
		return nil, true
	}

	size := int64(len(body))
	e := &entry{doc: doc, body: body, pinned: pin, version: version}
	e.pri = sh.clock + 1/max1(float64(len(body)))
	var evs []Eviction
	if !pin && s.shardBudget > 0 && sh.bytes+size > s.shardBudget {
		evs = sh.makeRoom(s, size, nil)
		if sh.bytes+size > s.shardBudget {
			// Everything evictable is gone and it still does not fit
			// (pinned bytes crowd the shard): refuse the insert.
			sh.mu.Unlock()
			s.rejected.Add(1)
			return evs, false
		}
	}
	sh.entries[doc] = e
	sh.pushFront(e)
	sh.bytes += size
	sh.mu.Unlock()
	s.addBytes(size)
	return evs, true
}

// makeRoom evicts unpinned entries (never `keep`) until `need` more bytes
// fit under the shard budget or nothing evictable remains.
func (sh *shard) makeRoom(s *Store, need int64, keep *entry) []Eviction {
	var evs []Eviction
	for sh.bytes+need > s.shardBudget {
		v := sh.victim(s, keep)
		if v == nil {
			break
		}
		size := int64(len(v.body))
		sh.unlink(v)
		delete(sh.entries, v.doc)
		sh.bytes -= size
		if s.cfg.Policy == GDSF {
			// Dual aging: future inserts compete against the pressure level
			// at which this victim fell out.
			sh.clock = v.pri
		}
		evs = append(evs, Eviction{Doc: v.doc, Bytes: int(size)})
		s.bytes.Add(-size)
		s.evictions.Add(1)
		s.evictedByte.Add(size)
	}
	return evs
}

// victim picks the next entry to evict under the configured policy,
// deterministically: the recency list is scanned from the LRU end with a
// strict-less comparison, so ties resolve toward least recently used.
func (sh *shard) victim(s *Store, keep *entry) *entry {
	switch s.cfg.Policy {
	case Heat:
		var best *entry
		bestScore := 0.0
		for e := sh.tail; e != nil; e = e.prev {
			if e.pinned || e == keep {
				continue
			}
			heat := 0.0
			if s.cfg.HeatOf != nil {
				heat = s.cfg.HeatOf(e.doc)
			}
			score := heat / max1(float64(len(e.body)))
			if best == nil || score < bestScore {
				best, bestScore = e, score
			}
		}
		return best
	case GDSF:
		var best *entry
		bestPri := 0.0
		for e := sh.tail; e != nil; e = e.prev {
			if e.pinned || e == keep {
				continue
			}
			if best == nil || e.pri < bestPri {
				best, bestPri = e, e.pri
			}
		}
		return best
	default: // LRU
		for e := sh.tail; e != nil; e = e.prev {
			if !e.pinned && e != keep {
				return e
			}
		}
		return nil
	}
}

// Delete removes a document (pinned or not) and returns whether it was
// present.
func (s *Store) Delete(doc core.DocID) bool {
	sh := s.shardFor(doc)
	sh.mu.Lock()
	e, ok := sh.entries[doc]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	size := int64(len(e.body))
	sh.unlink(e)
	delete(sh.entries, doc)
	sh.bytes -= size
	sh.mu.Unlock()
	s.bytes.Add(-size)
	return true
}

// Len returns the number of cached documents.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the bytes currently held, maintained incrementally.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// MaxBytes returns the high-water mark Bytes has reached.
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Evictions:    s.evictions.Load(),
		EvictedBytes: s.evictedByte.Load(),
		Rejected:     s.rejected.Load(),
	}
}

// ForEach visits every cached document (shards in index order, each shard
// from most to least recently used) until fn returns false. fn must not
// call back into the store.
func (s *Store) ForEach(fn func(doc core.DocID, size int) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			if !fn(e.doc, len(e.body)) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// Docs returns the cached ids in ForEach order.
func (s *Store) Docs() []core.DocID {
	out := make([]core.DocID, 0, 16)
	s.ForEach(func(d core.DocID, _ int) bool {
		out = append(out, d)
		return true
	})
	return out
}

func (s *Store) addBytes(delta int64) {
	if delta == 0 {
		return
	}
	b := s.bytes.Add(delta)
	for {
		m := s.maxBytes.Load()
		if b <= m || s.maxBytes.CompareAndSwap(m, b) {
			return
		}
	}
}

// touch marks an entry used: recency front, frequency bump, GDSF priority
// refresh.
func (sh *shard) touch(e *entry) {
	e.hits++
	e.pri = sh.clock + float64(1+e.hits)/max1(float64(len(e.body)))
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

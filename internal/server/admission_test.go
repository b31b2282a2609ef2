package server

// Single-threaded tests for queued admission (handleRequest): which requests
// a shard extracts and serves itself, which it passes toward the home
// server, and how the decision shows up in the scrape's CachedDocs and
// FilterStats.

import (
	"slices"
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// newTestShard builds an unstarted single-shard node (the root when root is
// set, with "pub" published) and returns it with its shard, clock set.
func newTestShard(t *testing.T, root bool, dataDir string) (*Server, *shard) {
	t.Helper()
	cfg := Config{
		ID: 1, Addr: "node", ParentID: 0, ParentAddr: "parent",
		Network: newTestNetwork(), NumShards: 1, CacheShards: 1, DataDir: dataDir,
	}
	if root {
		cfg = Config{
			ID: 0, Addr: "root", ParentID: -1,
			Docs:    map[core.DocID][]byte{"pub": []byte("origin")},
			Network: newTestNetwork(), NumShards: 1,
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.now = time.Now()
	return s, sh
}

// scrapeNow ticks every shard and assembles the stats scrape from the
// mailboxes the ticks just published.
func scrapeNow(s *Server) *netproto.Stats {
	for _, sh := range s.shards {
		sh.tick()
	}
	return s.ctrl.stats(s.ctrl.snaps())
}

func request(doc core.DocID, reqID uint64) *netproto.Envelope {
	return &netproto.Envelope{Kind: netproto.TypeRequest, From: -1, Doc: doc, Origin: 9, ReqID: reqID}
}

func TestQueuedAdmission(t *testing.T) {
	// admitted gives the node a copy of "d" carrying the given target.
	admitted := func(target float64) func(*testing.T, *shard) {
		return func(t *testing.T, sh *shard) {
			if !sh.admit("d", []byte("copy"), 1) {
				t.Fatal("admit failed")
			}
			sh.targets["d"] = target
		}
	}
	for _, tc := range []struct {
		name  string
		root  bool
		disk  bool
		setup func(*testing.T, *shard)
		doc   core.DocID
		// extract: counted extracted (else passed); served: answered here
		// (else forwarded toward the home); cached: listed in CachedDocs.
		extract, served, cached bool
	}{
		{name: "copy with a target and no served window extracts",
			setup: admitted(5), doc: "d", extract: true, served: true, cached: true},
		{name: "copy without a target passes",
			setup: admitted(0), doc: "d", cached: true},
		{name: "copy whose served rate reached its target passes",
			setup: func(t *testing.T, sh *shard) {
				admitted(5)(t, sh)
				sh.servedWindow("d").Add(sh.now, 1000)
			}, doc: "d", cached: true},
		{name: "document without a copy passes", doc: "d"},
		{name: "root extracts a published document",
			root: true, doc: "pub", extract: true, served: true, cached: true},
		{name: "root extracts an unpublished document",
			root: true, doc: "nope", extract: true, served: true},
		{name: "evicted copy passes",
			setup: func(t *testing.T, sh *shard) {
				admitted(5)(t, sh)
				sh.s.cache.Delete("d")
				sh.dropEvicted("d")
			}, doc: "d"},
		{name: "demoted replica passes",
			setup: func(t *testing.T, sh *shard) {
				admitted(5)(t, sh)
				sh.demoteLocal("d")
			}, doc: "d"},
		{name: "disk-only spilled copy extracts from disk",
			disk: true,
			setup: func(t *testing.T, sh *shard) {
				admitted(5)(t, sh)
				sh.s.cache.Delete("d")
				sh.dropEvicted("d")
			}, doc: "d", extract: true, served: true, cached: true},
		{name: "invalidated copy extracts then refetches",
			setup: func(t *testing.T, sh *shard) {
				admitted(5)(t, sh)
				sh.invalidateLocal("d")
			}, doc: "d", extract: true, cached: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.disk {
				dir = t.TempDir()
			}
			s, sh := newTestShard(t, tc.root, dir)
			defer s.closePersist()
			if tc.setup != nil {
				tc.setup(t, sh)
			}
			conn := &sinkConn{}
			sh.handle(event{env: request(tc.doc, 1), conn: conn})

			if got := sh.c.extracted == 1; got != tc.extract || sh.c.extracted+sh.c.passed != 1 {
				t.Fatalf("extracted=%d passed=%d, want extract=%v", sh.c.extracted, sh.c.passed, tc.extract)
			}
			if got := len(conn.sent) == 1; got != tc.served {
				t.Fatalf("answered here = %v (%d responses), want %v", got, len(conn.sent), tc.served)
			}
			if _, parked := sh.pending[pendingKey{origin: 9, reqID: 1}]; parked == tc.served {
				t.Fatalf("forwarded = %v, want %v", parked, !tc.served)
			}
			st := scrapeNow(s)
			if got := slices.Contains(st.CachedDocs, tc.doc); got != tc.cached {
				t.Fatalf("CachedDocs = %v, want %q listed = %v", st.CachedDocs, tc.doc, tc.cached)
			}
			if fs := st.FilterStats; fs.Inspected != 1 || fs.Inspected != fs.Extracted+fs.Passed {
				t.Fatalf("filter stats %+v, want one inspected request split into extracted + passed", fs)
			}
		})
	}
}

// TestFilterStatsCountFastServes: fast-path serves count as inspected and
// extracted requests next to the queued decisions, so inspected always
// equals extracted plus passed.
func TestFilterStatsCountFastServes(t *testing.T) {
	t.Run("root", func(t *testing.T) {
		s, sh := newTestShard(t, true, "")
		conn := &sinkConn{}
		for i := uint64(1); i <= 3; i++ {
			if !s.tryFastServe(sh, request("pub", i), conn) {
				t.Fatal("fast path declined a published document")
			}
		}
		sh.handle(event{env: request("pub", 4), conn: conn})
		sh.handle(event{env: request("nope", 5), conn: conn})
		st := scrapeNow(s)
		want := netproto.FilterStats{Inspected: 5, Extracted: 5}
		if st.FastServed != 3 || st.FilterStats != want {
			t.Fatalf("fast=%d filter=%+v, want fast=3 filter=%+v", st.FastServed, st.FilterStats, want)
		}
	})
	t.Run("copy", func(t *testing.T) {
		s, sh := newTestShard(t, false, "")
		if !sh.admit("d", []byte("copy"), 1) {
			t.Fatal("admit failed")
		}
		sh.targets["d"] = 5
		sh.refreshCredit("d")
		conn := &sinkConn{}
		if !s.tryFastServe(sh, request("d", 1), conn) {
			t.Fatal("fast path declined a copy with credits")
		}
		sh.servedWindow("d").Add(sh.now, 1000) // the copy is now over its target
		sh.handle(event{env: request("d", 2), conn: conn})
		st := scrapeNow(s)
		want := netproto.FilterStats{Inspected: 2, Extracted: 1, Passed: 1}
		if st.FastServed != 1 || st.FilterStats != want {
			t.Fatalf("fast=%d filter=%+v, want fast=1 filter=%+v", st.FastServed, st.FilterStats, want)
		}
	})
}

package server

import (
	"testing"
	"time"

	"webwave/internal/core"
	"webwave/internal/netproto"
)

// TestInvalidateDropsCopyThenLeaseRefreshes drives the full write path with
// no duty ledger entry for the leaf: the root installs the new version, the
// leaf gets a version-only invalidate, drops its copy (keeping duty), and
// the next request lease-refreshes the fresh body through the single-flight
// fetch — after which the leaf serves the new version locally again.
func TestInvalidateDropsCopyThenLeaseRefreshes(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:         map[core.DocID][]byte{"d": []byte("v0")},
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	startServer(t, Config{
		ID: 1, Addr: "leaf", ParentID: 0, ParentAddr: "root", HomeAddr: "root",
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	client := dial(t, netw, "leaf")

	// Register the leaf's parent link as a child edge at the root: a miss
	// for an unheld document forwards up, and the first frame From the leaf
	// installs its connection in the root's child view.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 1, Doc: "u",
	}); err != nil {
		t.Fatal(err)
	}
	netproto.PutEnvelope(recvKind(t, client, netproto.TypeResponse, 2*time.Second))

	// Hand the leaf a copy of "d" at version 0 with duty.
	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 5, Body: []byte("v0"),
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})

	// Write version 1 at the origin: an invalidate carrying the new body.
	// The body installs at the root; the leaf sees a version-only frame.
	writer := dial(t, netw, "root")
	if err := writer.Send(&netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: -1, To: 0, Doc: "d", DocVersion: 1, Body: []byte("v1"),
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "leaf invalidated", func(st *netproto.Stats) bool {
		return st.InvalidationsIn == 1
	})
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": false})

	// The stale miss travels up through the single-flight lease; the
	// response carries v1 and re-admits the copy at the leaf.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 2, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if string(resp.Body) != "v1" || resp.DocVersion != 1 {
		t.Fatalf("post-invalidate response = body %q version %d, want v1/1", resp.Body, resp.DocVersion)
	}
	if resp.ServedBy != 0 {
		t.Fatalf("served by %d, want the origin (0) on the lease fetch", resp.ServedBy)
	}
	netproto.PutEnvelope(resp)
	waitStats(t, netw, "leaf", "lease refresh", func(st *netproto.Stats) bool {
		return st.LeaseRefreshes == 1
	})

	// The refreshed copy serves the new version locally.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 3, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp = recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 1 || string(resp.Body) != "v1" || resp.DocVersion != 1 {
		t.Fatalf("refreshed serve = by %d body %q version %d, want local v1/1", resp.ServedBy, resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)
}

// TestRepublishPushesBodyAlongDutyEdge puts delegated duty for the leaf in
// the root's child ledger, then republishes: the new body must ride the
// duty edge down so the leaf swaps its copy in place and keeps serving —
// no extra round trip to the origin.
func TestRepublishPushesBodyAlongDutyEdge(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:         map[core.DocID][]byte{"d": []byte("v0")},
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	startServer(t, Config{
		ID: 1, Addr: "leaf", ParentID: 0, ParentAddr: "root", HomeAddr: "root",
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	client := dial(t, netw, "leaf")

	// Register the leaf's real parent link at the root (see above), so the
	// reclaim below credits a ledger whose edge is the genuine connection.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 1, Doc: "u",
	}); err != nil {
		t.Fatal(err)
	}
	netproto.PutEnvelope(recvKind(t, client, netproto.TypeResponse, 2*time.Second))

	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 5, Body: []byte("v0"),
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})

	// Announce the leaf's held duty to the root — the failover replay frame
	// — so the root's child ledger knows a copy lives below that edge.
	ann := dial(t, netw, "root")
	if err := ann.Send(&netproto.Envelope{
		Kind: netproto.TypeReclaim, From: 1, To: 0, Doc: "d", Rate: 5,
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "root", "ledger credited", func(st *netproto.Stats) bool {
		return st.ReclaimedDuty == 5
	})

	// Republish version 1: the body must arrive at the leaf as a republish
	// (not a version-only invalidate) and swap in place.
	writer := dial(t, netw, "root")
	if err := writer.Send(&netproto.Envelope{
		Kind: netproto.TypeRepublish, From: -1, To: 0, Doc: "d", DocVersion: 1, Body: []byte("v1"),
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "republish applied", func(st *netproto.Stats) bool {
		return st.RepublishesIn == 1
	})

	// The leaf still holds (and serves) the document — now at version 1 —
	// without ever dropping it or fetching upward.
	if err := client.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 2, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, client, netproto.TypeResponse, 2*time.Second)
	if resp.ServedBy != 1 || string(resp.Body) != "v1" || resp.DocVersion != 1 {
		t.Fatalf("post-republish serve = by %d body %q version %d, want local v1/1", resp.ServedBy, resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)
	st := waitStats(t, netw, "leaf", "no invalidation at the leaf", func(st *netproto.Stats) bool {
		return st.InvalidationsIn == 0
	})
	if st.LeaseRefreshes != 0 {
		t.Errorf("lease refreshes = %d, want 0: the body rode the duty edge", st.LeaseRefreshes)
	}
}

// TestVersionGateDropsStaleWrites drives a shard loop single-threaded: a
// frame at or below the high-water version must be dropped without touching
// the held copy, and version-carrying copy handoffs below the high-water
// mark must be refused.
func TestVersionGateDropsStaleWrites(t *testing.T) {
	s, err := New(Config{
		ID: 1, Addr: "x", ParentID: 0, ParentAddr: "p",
		Network: newTestNetwork(), NumShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.now = time.Now()
	if !sh.admit("d", []byte("v2"), 2) {
		t.Fatal("admit failed")
	}

	// A republish carrying an older version is a stale duplicate: dropped.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d", DocVersion: 1, Body: []byte("old"),
	}, conn: nopConn{}})
	if sh.nStaleDrops != 1 || sh.nRepublishesIn != 0 {
		t.Fatalf("stale republish: drops=%d applied=%d, want 1/0", sh.nStaleDrops, sh.nRepublishesIn)
	}
	if body, ok := s.cache.Peek("d"); !ok || string(body) != "v2" {
		t.Fatalf("held body = %q (%v) after stale republish, want v2 intact", body, ok)
	}

	// Same version is not news either — invalidates gate identically.
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: "d", DocVersion: 2,
	}, conn: nopConn{}})
	if sh.nStaleDrops != 2 || sh.nInvalidationsIn != 0 {
		t.Fatalf("same-version invalidate: drops=%d applied=%d, want 2/0", sh.nStaleDrops, sh.nInvalidationsIn)
	}
	if !s.cache.Contains("d") {
		t.Fatal("same-version invalidate dropped the copy")
	}

	// A genuinely newer invalidate applies: body gone, duty and filter stay,
	// the document marked stale for the lease path.
	sh.targets["d"] = 4
	sh.handle(event{env: &netproto.Envelope{
		Kind: netproto.TypeInvalidate, From: 0, To: 1, Doc: "d", DocVersion: 3,
	}, conn: nopConn{}})
	if sh.nInvalidationsIn != 1 {
		t.Fatalf("invalidations applied = %d, want 1", sh.nInvalidationsIn)
	}
	if s.cache.Contains("d") {
		t.Fatal("invalidate left the stale body in memory")
	}
	if !sh.staleDocs["d"] {
		t.Fatal("invalidate did not mark the document stale")
	}
	if sh.targets["d"] != 4 {
		t.Fatalf("invalidate moved duty: target = %v, want 4", sh.targets["d"])
	}

	// A stale delegate handoff (version below high-water) must be refused.
	if sh.admit("d", []byte("v1"), 1) {
		t.Fatal("admit accepted a version below the high-water mark")
	}
	if sh.nStaleDrops != 3 {
		t.Fatalf("stale drops = %d, want 3 after refused handoff", sh.nStaleDrops)
	}
	// The current version re-admits fine (the lease refresh path).
	if !sh.admit("d", []byte("v3"), 3) {
		t.Fatal("admit refused the high-water version")
	}
	if v, ok := s.cache.Version("d"); !ok || v != 3 {
		t.Fatalf("re-admitted version = %d (%v), want 3", v, ok)
	}
}

// TestWarmRestartRecoversVersions kills a copy-holding server and restarts
// it on the same data directory: the recovered copy must come back at the
// version it held, and the version gate must keep refusing stale writes
// across the restart.
func TestWarmRestartRecoversVersions(t *testing.T) {
	netw := newTestNetwork()
	dir := t.TempDir()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1, Network: netw,
	})
	cfg := Config{
		ID: 1, Addr: "leaf", ParentID: 0, ParentAddr: "root", HomeAddr: "root",
		Network: netw, DataDir: dir,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deleg := dial(t, netw, "leaf")
	if err := deleg.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 5, DocVersion: 7, Body: []byte("v7"),
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})
	s.Stop()

	s2 := startServer(t, cfg)
	waitCached(t, netw, "leaf", map[core.DocID]bool{"d": true})
	sh := s2.shardFor("d")
	if got := sh.docVer["d"]; got != 7 {
		t.Fatalf("recovered version = %d, want 7", got)
	}

	// Rollback prevention survives the restart: a write at or below the
	// recovered version is a stale duplicate.
	conn := dial(t, netw, "leaf")
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d", DocVersion: 6, Body: []byte("old"),
	}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, netw, "leaf", "stale write dropped", func(st *netproto.Stats) bool {
		return st.StaleDrops >= 1
	})
	if err := conn.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 1, Doc: "d",
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, conn, netproto.TypeResponse, 2*time.Second)
	if string(resp.Body) != "v7" || resp.DocVersion != 7 {
		t.Fatalf("post-restart serve = body %q version %d, want v7/7", resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)
}

// TestResponseBeforeRepublishAtCopyHolder replays the race where a newer
// version reaches a copy holder on a passing response (the origin's fast
// path answered a forwarded request with v2) before the republish frame
// for v2 arrives on the write lane. The holder must not keep serving its
// v1 body under the v2 label, and the late republish must still be applied
// and diffused to the holder's own children rather than dropped as stale.
func TestResponseBeforeRepublishAtCopyHolder(t *testing.T) {
	netw := newTestNetwork()
	startServer(t, Config{
		ID: 0, Addr: "root", ParentID: -1,
		Docs:         map[core.DocID][]byte{"d": []byte("v1")},
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})
	mid := startServer(t, Config{
		ID: 1, Addr: "mid", ParentID: 0, ParentAddr: "root", HomeAddr: "root",
		Network:      netw,
		GossipPeriod: 15 * time.Millisecond,
	})

	// A child (id 2) registers at mid with its first gossip.
	kid := dial(t, netw, "mid")
	if err := kid.Send(&netproto.Envelope{Kind: netproto.TypeGossip, From: 2, To: 1}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); mid.childConn(2) == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("child never registered")
		}
	}

	// mid holds a delegated copy of d at version 1.
	parent := dial(t, netw, "mid")
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeDelegate, From: 0, To: 1, Doc: "d", Rate: 50, Body: []byte("v1"), DocVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}
	waitCached(t, netw, "mid", map[core.DocID]bool{"d": true})

	// v2 passes through mid on a response before its republish frame.
	// Then a session that has seen v2 reads at mid — on the same
	// connection, so mid's shard handles the two in order: whatever mid
	// serves, the body must be the one its version label names.
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeResponse, From: 0, To: 1, Doc: "d", Origin: 7, ReqID: 99,
		ServedBy: 0, Body: []byte("v2"), DocVersion: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeRequest, From: -1, To: 1, Origin: 1, ReqID: 2, Doc: "d", MinVersion: 2,
	}); err != nil {
		t.Fatal(err)
	}
	resp := recvKind(t, parent, netproto.TypeResponse, 2*time.Second)
	if resp.DocVersion != 2 || string(resp.Body) != "v2" {
		t.Fatalf("session read after the passing response = body %q version %d, want v2/2", resp.Body, resp.DocVersion)
	}
	netproto.PutEnvelope(resp)

	// The republish for v2 lands late: applied, not a stale drop, and
	// diffused to the child (a version-only invalidate: no duty edge).
	if err := parent.Send(&netproto.Envelope{
		Kind: netproto.TypeRepublish, From: 0, To: 1, Doc: "d", DocVersion: 2, Body: []byte("v2"),
	}); err != nil {
		t.Fatal(err)
	}
	inv := recvKind(t, kid, netproto.TypeInvalidate, 2*time.Second)
	if inv.Doc != "d" || inv.DocVersion != 2 {
		t.Fatalf("diffused write = %s v%d, want d v2", inv.Doc, inv.DocVersion)
	}
	netproto.PutEnvelope(inv)
	st := waitStats(t, netw, "mid", "republish applied", func(st *netproto.Stats) bool {
		return st.RepublishesIn == 1
	})
	if st.StaleDrops != 0 {
		t.Fatalf("stale drops %d, want 0: the late republish was discarded", st.StaleDrops)
	}
}

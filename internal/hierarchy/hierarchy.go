// Package hierarchy simulates classic demand-driven hierarchical caching —
// the Harvest-style architecture of the paper's related work ([5], [9],
// [12], [25]) — as a protocol-level rival to WebWave rather than an
// analytic cost model.
//
// The mechanics: a request travels up the routing tree; the first node
// whose cache holds the document serves it; on the way back down, every
// node on the return path inserts the document into its (LRU-bounded)
// cache. There is no load-balancing objective at all: placement is a pure
// side effect of demand, so popular documents end up cached everywhere and
// the serving load concentrates wherever requests enter the tree.
//
// Comparing this against the document-level WebWave simulator
// (internal/docwave) on identical demand exposes exactly the trade-off the
// paper's introduction describes: hierarchical caching minimizes hit
// distance but does nothing for global load balance, while WebWave
// explicitly shapes who serves how much.
package hierarchy

import (
	"fmt"
	"math/rand"

	"webwave/internal/cachestore"
	"webwave/internal/core"
	"webwave/internal/trace"
	"webwave/internal/tree"
)

// Config parameterizes a hierarchical-caching simulation.
type Config struct {
	// CacheCapacity bounds each non-home node's cache (documents);
	// 0 = unlimited, the common Harvest deployment assumption.
	CacheCapacity int
	// Seed drives the request sampling.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	Requests int64
	// Served[v] counts requests served at node v.
	Served core.Vector
	// HitHops[h] counts requests served h hops from their origin.
	HitHops []int64
	// MeanHops is the average serving distance.
	MeanHops float64
	// MaxLoad and MaxLoadShare describe the busiest server.
	MaxLoad      float64
	MaxLoadShare float64
	// CopiesTotal counts cache entries across non-home nodes at the end.
	CopiesTotal int
}

// unitBody is the one body every cached entry shares: a single byte, so a
// cache's byte budget counts documents.
var unitBody = []byte{0}

// Sim replays sampled requests against a tree of LRU caches.
type Sim struct {
	t      *tree.Tree
	demand *trace.Demand
	cfg    Config
	caches []*cachestore.Store
	served core.Vector
	hops   []int64
	reqs   int64
}

// NewSim builds a simulator; the home server (tree root) holds every
// document permanently.
func NewSim(t *tree.Tree, demand *trace.Demand, cfg Config) (*Sim, error) {
	if err := demand.Validate(t.Len()); err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	s := &Sim{
		t:      t,
		demand: demand,
		cfg:    cfg,
		caches: make([]*cachestore.Store, t.Len()),
		served: make(core.Vector, t.Len()),
		hops:   make([]int64, t.Height()+1),
	}
	for v := range s.caches {
		s.caches[v] = cachestore.New(cachestore.Config{
			Shards: 1, Policy: cachestore.LRU, BudgetBytes: int64(cfg.CacheCapacity),
		})
	}
	return s, nil
}

// Request processes one request for doc entering at origin: serve at the
// first node on the path to the root holding the document (the home always
// does) and cache on the return path.
func (s *Sim) Request(origin int, doc core.DocID) (servedAt, hops int) {
	v := origin
	dist := 0
	for {
		if v == s.t.Root() || s.caches[v].Contains(doc) {
			break
		}
		v = s.t.Parent(v)
		dist++
	}
	if v != s.t.Root() {
		s.caches[v].Get(doc) // touch recency on the hit
	}
	s.served[v]++
	s.reqs++
	s.hops[dist]++
	// Cache on the return path (every node strictly between the server and
	// the origin, plus the origin itself).
	w := origin
	for w != v {
		s.caches[w].Put(doc, unitBody)
		w = s.t.Parent(w)
	}
	return v, dist
}

// Run samples n requests proportional to the demand matrix and returns the
// summary. Sampling is deterministic for a fixed seed.
func (s *Sim) Run(n int) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hierarchy: request count %d <= 0", n)
	}
	type cell struct {
		origin int
		doc    core.DocID
		weight float64
	}
	var cells []cell
	total := 0.0
	for v, row := range s.demand.Rates {
		for j, r := range row {
			if r > 0 {
				cells = append(cells, cell{origin: v, doc: s.demand.Docs[j].ID, weight: r})
				total += r
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("hierarchy: empty demand")
	}
	// Cumulative weights for sampling.
	cum := make([]float64, len(cells))
	acc := 0.0
	for i, c := range cells {
		acc += c.weight
		cum[i] = acc
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	for i := 0; i < n; i++ {
		x := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s.Request(cells[lo].origin, cells[lo].doc)
	}
	return s.result(), nil
}

func (s *Sim) result() *Result {
	res := &Result{
		Requests: s.reqs,
		Served:   core.CloneVec(s.served),
		HitHops:  append([]int64(nil), s.hops...),
	}
	var hopSum int64
	for h, c := range s.hops {
		hopSum += int64(h) * c
	}
	if s.reqs > 0 {
		res.MeanHops = float64(hopSum) / float64(s.reqs)
	}
	max, _ := core.MaxVec(s.served)
	res.MaxLoad = max
	if s.reqs > 0 {
		res.MaxLoadShare = max / float64(s.reqs)
	}
	for v, c := range s.caches {
		if v != s.t.Root() {
			res.CopiesTotal += c.Len()
		}
	}
	return res
}

// CacheContents returns node v's cached documents, most recent first.
func (s *Sim) CacheContents(v int) []core.DocID { return s.caches[v].Docs() }

package main

// Workloads and their seeded inputs. The tree shape and the published
// bodies are fixed per workload; --seed drives only the request schedule:
// Poisson arrival times, Zipf document draws, entry leaves, the PUT mix and
// session assignment.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"webwave/internal/core"
	"webwave/internal/tree"
)

// workload is one traffic mix against one service configuration.
type workload struct {
	name string

	tcp      bool  // tree links over TCP loopback with the v2 codec
	docs     int   // published documents doc-0 .. doc-(docs-1)
	docBytes int   // body size of every document
	budget   int64 // per-node cache budget in bytes (0 = unlimited)

	hotSet      int           // Zipf popularity ranks over this many docs
	rotateEvery time.Duration // shift the hot set this often (0 = fixed)
	rotateBy    int           // docs the hot set shifts per rotation

	putShare float64 // share of requests that are PUTs
	putHead  int     // PUTs go to the putHead most popular docs
	sessions int     // client sessions threading read-my-writes tokens

	refRate float64 // reference offered rate, req/s
}

// treeNodes and treeSeed fix the tree every workload runs on.
const (
	treeNodes = 31
	treeSeed  = 1
	zipfS     = 1.0

	// p99Limit is the GET p99 a max-rate step must stay under.
	p99Limit = 20 * time.Millisecond
)

var workloads = []workload{
	// Zipf GETs on 1 KiB docs over the memory transport: a request climbs
	// about one hop and hits the fast path, so the HTTP edge and the
	// gateway dominate.
	{
		name: "hot-read",
		docs: 64, docBytes: 1 << 10, hotSet: 64,
		refRate: 3000,
	},
	// A rotating hot set of 8 KiB docs 2.7 times the per-node budget over
	// TCP v2 links: requests miss and climb, so transport, codec, queues
	// and evictions dominate.
	{
		name: "tree-miss",
		tcp:  true, docs: 128, docBytes: 8 << 10, budget: 96 << 10,
		hotSet: 32, rotateEvery: 2 * time.Second, rotateBy: 4,
		refRate: 1000,
	},
	// hot-read plus 3% PUTs to the Zipf head, with session tokens threaded
	// into later GETs: the read path under republish diffusion, leases and
	// version gating.
	{
		name: "write-mix",
		docs: 64, docBytes: 1 << 10, hotSet: 64,
		putShare: 0.03, putHead: 4, sessions: 8,
		refRate: 3000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func buildTree() *tree.Tree {
	t, err := tree.Random(treeNodes, rand.New(rand.NewSource(treeSeed)))
	if err != nil {
		panic(err) // a fixed, valid size: only a bug reaches here
	}
	return t
}

func docID(i int) core.DocID { return core.DocID(fmt.Sprintf("doc-%d", i)) }

// body is the content of doc at version ver: a header line naming both,
// then filler derived from them, size bytes in all. The service publishes
// version 0 from it and the driver writes later versions from it, so the
// driver knows every body the service may return.
func body(doc core.DocID, ver uint64, size int) []byte {
	b := make([]byte, size)
	fillBody(b, doc, ver)
	return b
}

func fillBody(b []byte, doc core.DocID, ver uint64) {
	n := copy(b, fmt.Sprintf("%s v%d\n", doc, ver))
	h := fnv.New64a()
	h.Write([]byte(doc))
	x := h.Sum64() ^ (ver * 0x9E3779B97F4A7C15)
	for i := n; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = 'a' + byte(x%26)
	}
}

// entry is one scheduled request.
type entry struct {
	at      time.Duration // due time, from the schedule's start
	doc     int
	leaf    int // entry node
	put     bool
	session int
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// schedule draws an open-loop Poisson schedule at rate req/s for d.
// offset is the schedule's start on the workload's popularity clock, so
// a rotating hot set keeps turning across consecutive schedules.
func (w workload) schedule(rng *rand.Rand, rate float64, d, offset time.Duration, leaves []int, cdf []float64) []entry {
	var out []entry
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		e := entry{at: at, leaf: leaves[rng.Intn(len(leaves))]}
		rank := sort.SearchFloat64s(cdf, rng.Float64())
		if rank >= len(cdf) {
			rank = len(cdf) - 1
		}
		if w.putShare > 0 && rng.Float64() < w.putShare {
			e.put = true
			rank = rng.Intn(w.putHead)
		}
		if w.sessions > 0 {
			e.session = rng.Intn(w.sessions)
		}
		shift := 0
		if w.rotateEvery > 0 {
			shift = int((offset+at)/w.rotateEvery) * w.rotateBy
		}
		e.doc = (rank + shift) % w.docs
		out = append(out, e)
	}
}

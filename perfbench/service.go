package main

// The service process: the document service assembled from public
// constructors only, the way cmd/webwave-http does — a tree, cluster.New,
// gateway.New — behind an http.Server on loopback. It prints one "ready"
// line with its address and serves until its standard input closes. A
// second path prefix, /bench/, answers the driver's stats scrapes and
// trace-window controls.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"webwave/internal/cluster"
	"webwave/internal/core"
	"webwave/internal/gateway"
	"webwave/internal/netproto"
	"webwave/internal/transport"
)

// statsSummary is one Cluster.Stats() scrape reduced to what the driver
// needs: counters summed over nodes, and the gauges it reports.
type statsSummary struct {
	Served           int64   `json:"served"`
	FastServed       int64   `json:"fast_served"`
	Forwarded        int64   `json:"forwarded"`
	Coalesced        int64   `json:"coalesced"`
	Inspected        int64   `json:"inspected"`
	Extracted        int64   `json:"extracted"`
	DelegationsOut   int64   `json:"delegations_out"`
	ShedsOut         int64   `json:"sheds_out"`
	GossipSent       int64   `json:"gossip_sent"`
	EvictedDocs      int64   `json:"evicted_docs"`
	SessionRefreshes int64   `json:"session_refreshes"`
	LeaseRefreshes   int64   `json:"lease_refreshes"`
	StaleDrops       int64   `json:"stale_drops"`
	MaxLoad          float64 `json:"max_load"`              // busiest node's served req/s over its window
	QueueLen         int     `json:"queue_len"`             // summed over nodes
	PendingLen       int     `json:"pending_len"`           // summed over nodes
	OverBudget       []int   `json:"over_budget,omitempty"` // non-root nodes whose cache ever exceeded the budget
}

// procUsage is the service process's own resource use.
type procUsage struct {
	CPU    time.Duration `json:"cpu_ns"` // user + system
	MaxRSS int64         `json:"maxrss"` // peak resident set, bytes
}

func readUsage() (procUsage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}, err
	}
	return procUsage{
		CPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		MaxRSS: ru.Maxrss << 10, // Linux reports KiB
	}, nil
}

func summarize(sts []*netproto.Stats, root int, budget int64) statsSummary {
	var s statsSummary
	for v, st := range sts {
		if st == nil {
			continue
		}
		s.Served += st.Served
		s.FastServed += st.FastServed
		s.Forwarded += st.Forwarded
		s.Coalesced += st.Coalesced
		s.Inspected += st.FilterStats.Inspected
		s.Extracted += st.FilterStats.Extracted
		s.DelegationsOut += st.DelegationsOut
		s.ShedsOut += st.ShedsOut
		s.GossipSent += st.GossipSent
		s.EvictedDocs += st.EvictedDocs
		s.SessionRefreshes += st.SessionRefreshes
		s.LeaseRefreshes += st.LeaseRefreshes
		s.StaleDrops += st.StaleDrops
		s.MaxLoad = max(s.MaxLoad, st.Load)
		s.QueueLen += st.QueueLen
		s.PendingLen += st.PendingLen
		if v != root && budget > 0 && st.MaxCacheBytes > budget {
			s.OverBudget = append(s.OverBudget, v)
		}
	}
	return s
}

// runService builds and serves one workload's service until stdin closes.
func runService(w workload, traced bool) error {
	t := buildTree()
	docs := make(map[core.DocID][]byte, w.docs)
	for i := 0; i < w.docs; i++ {
		docs[docID(i)] = body(docID(i), 0, w.docBytes)
	}
	var netw transport.Network = transport.NewMemoryNetwork(transport.MemoryOptions{})
	var addrFor func(int) string
	if w.tcp {
		netw = transport.TCPNetwork{Version: netproto.Version2}
		addrFor = func(int) string { return "127.0.0.1:0" }
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
		netw = &tapNetwork{inner: netw, rec: rec}
	}

	t0 := time.Now()
	c, err := cluster.New(t, docs, cluster.Config{
		Network:          netw,
		AddrFor:          addrFor,
		GossipPeriod:     50 * time.Millisecond,
		DiffusionPeriod:  100 * time.Millisecond,
		Window:           time.Second,
		Tunneling:        true,
		CacheBudgetBytes: w.budget,
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	newNs := time.Since(t0).Nanoseconds()
	defer c.Stop()

	gw := gateway.New(c, gateway.Config{
		Origin: gateway.OriginFromHeader(enterHeader, gateway.HashOrigin(t.Leaves())),
	})
	defer gw.Close()

	mux := http.NewServeMux()
	var docsH http.Handler = gw
	if traced {
		docsH = &httpTap{next: gw, rec: rec}
	}
	mux.Handle("/docs/", docsH)
	mux.HandleFunc("/bench/stats", func(rw http.ResponseWriter, _ *http.Request) {
		sts, err := c.Stats()
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(rw, summarize(sts, t.Root(), w.budget))
	})
	mux.HandleFunc("/bench/usage", func(rw http.ResponseWriter, _ *http.Request) {
		u, err := readUsage()
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(rw, u)
	})
	mux.HandleFunc("/bench/trace/start", func(rw http.ResponseWriter, _ *http.Request) {
		if rec == nil {
			http.Error(rw, "service runs untraced", http.StatusConflict)
			return
		}
		rec.start()
		rw.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/bench/trace/stop", func(rw http.ResponseWriter, _ *http.Request) {
		if rec == nil {
			http.Error(rw, "service runs untraced", http.StatusConflict)
			return
		}
		writeJSON(rw, rec.stop())
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Printf("ready %s %d\n", ln.Addr(), newNs)

	// The driver closes our stdin to stop us; a driver that dies closes it
	// too.
	_, _ = io.Copy(io.Discard, os.Stdin)
	srv.Close()
	if err := <-done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench service: write json:", err)
	}
}

// Command webwave-swarm launches an N-hundred-node WebWave tree as separate
// OS processes over real TCP — one `webwave-cluster node` exec per routing
// tree node — drives a Poisson schedule through it, SIGKILLs a whole rack
// mid-run, re-execs it warm from its journals, and writes the scenario
// report benchgate consumes.
//
// Usage:
//
//	webwave-swarm -node-bin bin/webwave-cluster -racks 4 -rack-nodes 25 -rack-depth 5 -json BENCH_swarm.json
//
// The default shape is the headline scenario: 1 + 4×25 = 101 processes at
// tree depth 6, rack 0 killed a third of the way in. Availability, repair
// and reabsorption times, warm-recovery counts and harness health all land
// in the JSON report (gate it with `benchgate -report R -baseline B`).
package main

import (
	"flag"
	"fmt"
	"os"

	"webwave/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "webwave-swarm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("webwave-swarm", flag.ContinueOnError)
	nodeBin := fs.String("node-bin", "bin/webwave-cluster", "node binary (exec'd as '<node-bin> node ...' per tree node)")
	seed := fs.Int64("seed", 7, "RNG seed (tree shape, catalog demand, schedule)")
	racks := fs.Int("racks", 0, "racks under the root (0 = default 4)")
	rackNodes := fs.Int("rack-nodes", 0, "nodes per rack (0 = default 25)")
	rackDepth := fs.Int("rack-depth", 0, "rack spine length; tree depth is this +1 (0 = default 5)")
	docs := fs.Int("docs", 0, "catalog size (0 = default 32)")
	docBytes := fs.Int("doc-bytes", 0, "body bytes per document (0 = default 512)")
	rate := fs.Float64("rate", 0, "offered load, req/s (0 = default 400)")
	duration := fs.Float64("duration", 0, "schedule length, seconds (0 = default 12)")
	killRack := fs.Int("kill-rack", 0, "rack SIGKILLed mid-run (-1 = no failure)")
	killAt := fs.Float64("kill-at", 0, "kill time, seconds (0 = duration/3)")
	downtime := fs.Float64("downtime", 0, "seconds the rack stays down (0 = duration/4)")
	heartbeatMS := fs.Int("heartbeat-ms", 0, "failure-detector period, ms (0 = default 50)")
	workdir := fs.String("workdir", "", "run directory for per-node logs and data dirs (empty = temp dir, removed at exit)")
	basePort := fs.Int("base-port", 0, "fixed port plan 127.0.0.1:base+id (0 = probe free ports)")
	cacheBudget := fs.Int64("cache-budget", 0, "per-node cache budget, bytes (0 = unlimited)")
	diskBudget := fs.Int64("disk-budget", 0, "per-node disk-tier budget, bytes (0 = unlimited)")
	jsonPath := fs.String("json", "", "write the swarm report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if _, err := os.Stat(*nodeBin); err != nil {
		return fmt.Errorf("node binary %q: %w (build it: go build -o bin/webwave-cluster ./cmd/webwave-cluster)", *nodeBin, err)
	}

	sp := workload.SwarmSpec{
		Seed: *seed, Racks: *racks, RackNodes: *rackNodes, RackDepth: *rackDepth,
		NumDocs: *docs, DocBytes: *docBytes, TotalRate: *rate, Duration: *duration,
		KillRack: *killRack, KillAt: *killAt, Downtime: *downtime,
		HeartbeatMS: *heartbeatMS,
	}.WithDefaults()
	fmt.Printf("scenario swarm: %d racks x %d nodes (spine %d) = %d processes, %d docs, %.0f req/s for %.1fs\n",
		sp.Racks, sp.RackNodes, sp.RackDepth, 1+sp.Racks*sp.RackNodes,
		sp.NumDocs, sp.TotalRate, sp.Duration)
	if sp.KillRack >= 0 {
		fmt.Printf("  killing rack %d (%d processes) at %.1fs for %.1fs (heartbeat %dms)\n",
			sp.KillRack, sp.RackNodes, sp.KillAt, sp.Downtime, sp.HeartbeatMS)
	}

	rep, err := workload.RunSwarm(sp, workload.SwarmOptions{
		Command:          []string{*nodeBin, "node"},
		WorkDir:          *workdir,
		BasePort:         *basePort,
		CacheBudgetBytes: *cacheBudget,
		DiskBudgetBytes:  *diskBudget,
	}, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return err
	}

	fmt.Printf("  availability %.4f (%d/%d; %d rerouted, %d failed, %d lost in flight)\n",
		rep.Availability, rep.Responses, rep.Offered,
		rep.Rerouted, rep.FailedInjects, rep.LostInFlight)
	fmt.Printf("  repair %.2fs, reabsorb %.2fs, reconnects %d, reclaimed %.1f req/s, absorbed %.1f req/s\n",
		rep.RepairSeconds, rep.ReabsorbSeconds, rep.Reconnects,
		rep.ReclaimedDuty, rep.AbsorbedDuty)
	fmt.Printf("  warm docs %d, scrape errors %d, orphaned at end %d, failed revives %d, forced teardowns %d\n",
		rep.WarmDocs, rep.ScrapeErrors, rep.FinalOrphaned,
		rep.FailedRevives, rep.ForcedTeardowns)

	if *jsonPath != "" {
		if err := workload.WriteJSON(*jsonPath, rep); err != nil {
			return err
		}
		fmt.Printf("  report written to %s\n", *jsonPath)
	}
	return nil
}

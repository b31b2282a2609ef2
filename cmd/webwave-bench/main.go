// Command webwave-bench runs one scenario from the workload registry
// (internal/workload.Scenarios) and writes its JSON report; for the gated
// scenarios, benchgate then holds that report against the committed
// baseline in bench/.
//
// The trace-replay scenarios (zipf-steady, flash-crowd, churn,
// cache-pressure, ...) compare WebWave with the comparison policies on the
// identical request trace. Fast-forward mode (the default) replays them in
// virtual time on the discrete-event engine; two runs with the same seed
// produce byte-identical reports. Live mode replays the compressed schedule
// against a real in-memory cluster through the HTTP gateway. hot-key is a
// seeded, deterministic capacity model of the replication forest. The rest
// are wall-clock (NOT deterministic) measurements of the live stack:
// wire-throughput (v1 vs v2 wire codec), core-scaling (GOMAXPROCS sweep),
// chaos and restart (node kills, cold vs warm revival), bigger-than-ram
// (disk tier), update-heavy and invalidation-storm (mutable documents) and
// session (read-my-writes tokens). `-list` prints the catalog; the
// multi-process swarm runs under webwave-swarm instead.
//
// -cpuprofile and -memprofile write pprof artifacts covering the run, so a
// regression caught by CI can be diagnosed from the uploaded profile
// instead of reproduced by hand.
//
// Usage:
//
//	webwave-bench -list
//	webwave-bench -scenario flash-crowd -seed 1 -json out.json
//	webwave-bench -scenario churn -mode live -speedup 20 -json out.json
//	webwave-bench -scenario zipf-steady -mode live -transport tcp -wirev 2
//	webwave-bench -scenario core-scaling -procs 1,4 -cpuprofile cpu.pprof -json BENCH_scaling.json
//	webwave-bench -scenario chaos -kill-fraction 0.1 -json BENCH_chaos.json
//	webwave-bench -scenario hot-key -ks 1,3 -json BENCH_hotkey.json
//	webwave-bench -scenario invalidation-storm -k 2 -writes 8 -json BENCH_storm.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"webwave/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "webwave-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var p workload.Params
	fs := flag.NewFlagSet("webwave-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list scenarios and exit")
	scenario := fs.String("scenario", "zipf-steady", "scenario name (see -list)")
	jsonPath := fs.String("json", "", "write the JSON report to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the run to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	fs.Int64Var(&p.Seed, "seed", 1, "RNG seed; fixes tree, trace and report in fast mode")
	fs.StringVar(&p.Mode, "mode", "fast", "trace replay: fast (virtual time, deterministic) or live (real cluster)")
	fs.IntVar(&p.Nodes, "n", 0, "override tree size")
	fs.Float64Var(&p.Duration, "duration", 0, "override schedule length, seconds")
	fs.Float64Var(&p.Rate, "rate", 0, "override aggregate request rate, req/s")
	fs.Float64Var(&p.Window, "window", 0, "override metrics window, seconds")
	fs.Float64Var(&p.Speedup, "speedup", 10, "live: schedule time compression")
	fs.IntVar(&p.Clients, "clients", 0, "concurrent workers / closed-loop clients (0 = scenario default: 16, 120 for invalidation-storm)")
	fs.StringVar(&p.Transport, "transport", "mem", "live: cluster transport (mem or tcp)")
	fs.IntVar(&p.WireVersion, "wirev", 2, "live: TCP wire protocol version (1=JSON, 2=binary)")
	fs.IntVar(&p.BodyBytes, "body", 0, "wire-throughput/core-scaling: document body bytes (default 1024)")
	fs.Int64Var(&p.CacheBudget, "cache-budget", 0, "override per-node cache budget, bytes (0 = scenario default)")
	fs.Int64Var(&p.DiskBudget, "disk-budget", 0, "restart/bigger-than-ram: per-node disk-tier budget, bytes (0 = scenario default)")
	fs.IntVar(&p.DocBytes, "doc-bytes", 0, "override document body size, bytes")
	fs.StringVar(&p.EvictPolicy, "evict-policy", "", "live: eviction policy (lru, heat or gdsf)")
	fs.Func("procs", "core-scaling: comma-separated GOMAXPROCS sweep (default 1,2,4,8)", intList(&p.Procs))
	fs.IntVar(&p.Repeat, "repeat", 1, "core-scaling: full-sweep repetitions, keeping the lowest efficiency per core count (baselines use 3)")
	fs.Float64Var(&p.KillFraction, "kill-fraction", 0, "chaos: fraction of interior nodes killed mid-run (0 = default 0.10)")
	fs.IntVar(&p.HeartbeatMS, "heartbeat-ms", 0, "chaos: failure-detector period, milliseconds (0 = default 40)")
	fs.Func("ks", "hot-key: comma-separated forest widths to sweep (default 1,3)", intList(&p.Ks))
	fs.Float64Var(&p.WriteFraction, "write-fraction", 0, "update-heavy: fraction of the schedule that becomes republish writes (0 = default 0.10)")
	fs.IntVar(&p.Writes, "writes", 0, "invalidation-storm: write rounds (0 = default 8)")
	fs.IntVar(&p.Subtrees, "subtrees", 0, "invalidation-storm/session: interior subtrees under the origin (0 = default 3)")
	fs.IntVar(&p.LeavesPer, "leaves-per", 0, "invalidation-storm/session: leaves per subtree (0 = default 4)")
	fs.IntVar(&p.Docs, "docs", 0, "session: catalog size (0 = default 4)")
	fs.IntVar(&p.Rounds, "rounds", 0, "session: write-then-read rounds per pass (0 = default 40)")
	fs.IntVar(&p.ReadsPerWrite, "reads-per-write", 0, "session: reads injected per round (0 = default 6)")
	fs.IntVar(&p.K, "k", 0, "invalidation-storm: replication-forest width for the hot doc (0 = default 2, 1 disables)")
	fs.IntVar(&p.SettleMS, "settle-ms", 0, "invalidation-storm: write-to-burst settle, milliseconds (0 = default 25)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, s := range workload.Scenarios() {
			fmt.Printf("%-18s %s\n", s.Name, s.About)
		}
		return nil
	}
	sc, ok := workload.Find(*scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list)", *scenario)
	}
	if sc.Run == nil {
		return fmt.Errorf("scenario %s has its own runner (see -list)", sc.Name)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile: %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "webwave-bench: memprofile:", err)
				return
			}
			runtime.GC() // settle so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "webwave-bench: memprofile:", err)
			}
			f.Close()
			fmt.Printf("heap profile: %s\n", *memprofile)
		}()
	}

	rep, err := sc.Run(p, func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
	if err != nil {
		return err
	}
	if *jsonPath == "" {
		return nil
	}
	if err := workload.WriteJSON(*jsonPath, rep); err != nil {
		return err
	}
	fmt.Printf("report: %s\n", *jsonPath)
	return nil
}

// intList parses a comma-separated list of positive integers ("1,2,4,8")
// into *dst.
func intList(dst *[]int) func(string) error {
	return func(s string) error {
		var out []int
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			n, err := strconv.Atoi(part)
			if err != nil || n <= 0 {
				return fmt.Errorf("bad entry %q (want positive integers, e.g. 1,2,4)", part)
			}
			out = append(out, n)
		}
		if len(out) == 0 {
			return fmt.Errorf("empty list")
		}
		*dst = out
		return nil
	}
}

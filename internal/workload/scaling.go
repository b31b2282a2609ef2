package workload

// Core-scaling scenario: how far does one node's serving rate climb as the
// process gets more cores? The same tree, documents and closed-loop client
// pressure are driven over real TCP loopback sockets once per GOMAXPROCS
// setting, with each server's shard-loop count following the core count.
// The report records sustained responses/second, per-core throughput and
// scaling efficiency, Jain fairness of the per-node serve counts, and the
// below-home hit rate — so a scheduler or shard regression shows up as a
// bent curve, not an anecdote. Wall-clock measurement: NOT deterministic.

import (
	"fmt"
	"runtime"

	"webwave/internal/transport"
)

// ScalingSpec parameterizes the core-scaling scenario.
type ScalingSpec struct {
	Seed      int64   `json:"seed"`
	Nodes     int     `json:"nodes"`      // tree size; default 15
	Clients   int     `json:"clients"`    // closed-loop injector connections; default 16
	NumDocs   int     `json:"num_docs"`   // catalog size; default 32
	BodyBytes int     `json:"body_bytes"` // document body size; default 1024
	ZipfSkew  float64 `json:"zipf_skew"`  // popularity skew; default 1.0
	Duration  float64 `json:"duration_s"` // measured seconds per core count; default 3
	Procs     []int   `json:"procs"`      // GOMAXPROCS sweep; default 1,2,4,8
	// Repeat runs the whole sweep this many times (default 1) and keeps,
	// per core count, the run with the lowest within-sweep efficiency (for
	// the sweep base: the lowest throughput). Baselines are regenerated
	// with Repeat 3 so one noisy wall-clock run cannot commit an outlier
	// bar for the CI gate.
	Repeat int `json:"repeat,omitempty"`
}

// WithDefaults fills unset fields.
func (s ScalingSpec) WithDefaults() ScalingSpec {
	if s.Nodes <= 0 {
		s.Nodes = 15
	}
	if s.Clients <= 0 {
		// Matches the committed bench/BENCH_scaling_baseline.json spec,
		// which the gate requires to agree before comparing curves.
		s.Clients = 16
	}
	if s.NumDocs <= 0 {
		s.NumDocs = 32
	}
	if s.BodyBytes <= 0 {
		s.BodyBytes = 1024
	}
	if s.ZipfSkew <= 0 {
		s.ZipfSkew = 1.0
	}
	if s.Duration <= 0 {
		s.Duration = 3
	}
	if len(s.Procs) == 0 {
		s.Procs = []int{1, 2, 4, 8}
	}
	if s.Repeat <= 0 {
		s.Repeat = 1
	}
	return s
}

// ScalingRun is one GOMAXPROCS setting's measurement.
type ScalingRun struct {
	Procs         int     `json:"procs"`
	Shards        int     `json:"shards"` // per-server shard loops (== Procs)
	Responses     int64   `json:"responses"`
	ThroughputRPS float64 `json:"throughput_rps"`
	PerCoreRPS    float64 `json:"per_core_rps"`
	// Efficiency is PerCoreRPS over the sweep's 1-proc throughput — 1.0 is
	// perfect linear scaling. This self-normalized figure is what the CI
	// gate compares, so baselines survive hardware changes.
	Efficiency   float64 `json:"efficiency"`
	Jain         float64 `json:"jain"`
	HitRate      float64 `json:"hit_rate"` // share of serves below the home server
	MeanHops     float64 `json:"mean_hops"`
	ServingNodes int     `json:"serving_nodes"`
	FastServed   int64   `json:"fast_served"`
	Forwarded    int64   `json:"forwarded"`
	Coalesced    int64   `json:"coalesced"`
}

// ScalingReport is the core-scaling JSON document.
type ScalingReport struct {
	Schema   string      `json:"schema"`
	Scenario string      `json:"scenario"`
	Spec     ScalingSpec `json:"spec"`
	// HostProcs is runtime.NumCPU() at run time: sweep points beyond it
	// measure oversubscription, not scaling, and readers (and the gate's
	// users) should judge the curve accordingly.
	HostProcs         int          `json:"host_procs"`
	Runs              []ScalingRun `json:"runs"`
	SpeedupMaxOverOne float64      `json:"speedup_max_over_one"`
}

// ScalingSchema identifies core-scaling reports.
const ScalingSchema = "webwave-core-scaling/v1"

// Run returns the sweep entry for the given proc count, or nil.
func (r *ScalingReport) Run(procs int) *ScalingRun {
	for i := range r.Runs {
		if r.Runs[i].Procs == procs {
			return &r.Runs[i]
		}
	}
	return nil
}

// scalingMaxRegress is the largest fractional drop of per-core efficiency
// below the baseline's, at any common core count, that the gate accepts.
const scalingMaxRegress = 0.15

// Checks gates the shape of the scaling curve: efficiency — req/s per core
// normalized by the same sweep's base throughput — must stay within
// scalingMaxRegress of the baseline at every common core count beyond the
// base. The normalization makes the gate portable across hardware, so a
// raw per-core drop is only a warning. Duration is exempt from the
// workload pin: it sets the sampling window, not the offered pressure, and
// CI measures a shorter window than the committed baseline.
func (r *ScalingReport) Checks(base *ScalingReport) ([]Check, error) {
	if len(r.Spec.Procs) == 0 || len(base.Spec.Procs) == 0 {
		return nil, fmt.Errorf("scaling report/baseline with empty proc sweep")
	}
	rw, bw := r.Spec, base.Spec
	if rw.Seed != bw.Seed || rw.Nodes != bw.Nodes || rw.Clients != bw.Clients ||
		rw.NumDocs != bw.NumDocs || rw.BodyBytes != bw.BodyBytes || rw.ZipfSkew != bw.ZipfSkew {
		return nil, fmt.Errorf("report (seed %d, %d nodes, %d clients, %d docs x %dB, skew %g) and baseline (seed %d, %d nodes, %d clients, %d docs x %dB, skew %g) are different workloads; regenerate the baseline",
			rw.Seed, rw.Nodes, rw.Clients, rw.NumDocs, rw.BodyBytes, rw.ZipfSkew,
			bw.Seed, bw.Nodes, bw.Clients, bw.NumDocs, bw.BodyBytes, bw.ZipfSkew)
	}
	if rw.Procs[0] != bw.Procs[0] {
		return nil, fmt.Errorf("report sweep starts at %d procs, baseline at %d; efficiencies are not comparable — regenerate the baseline",
			rw.Procs[0], bw.Procs[0])
	}
	var out []Check
	checked := 0
	for _, br := range base.Runs {
		rr := r.Run(br.Procs)
		if rr == nil {
			continue // CI sweeps a subset of the committed baseline's procs
		}
		if rr.PerCoreRPS < br.PerCoreRPS*(1-scalingMaxRegress) {
			out = append(out, Check{Verdict: "warn", Line: fmt.Sprintf(
				"procs=%d raw %8.0f req/s/core vs baseline %8.0f (different hardware? not gated)",
				br.Procs, rr.PerCoreRPS, br.PerCoreRPS)})
		}
		if br.Procs == bw.Procs[0] {
			continue // efficiency at the sweep base is 1.0 by definition
		}
		checked++
		if rr.Efficiency < br.Efficiency*(1-scalingMaxRegress) {
			out = append(out, check(false, "procs=%d efficiency %.4f fell >%.0f%% below baseline %.4f",
				br.Procs, rr.Efficiency, scalingMaxRegress*100, br.Efficiency))
		} else {
			out = append(out, check(true, "procs=%d efficiency %.4f (baseline %.4f, %6.0f req/s/core)",
				br.Procs, rr.Efficiency, br.Efficiency, rr.PerCoreRPS))
		}
	}
	if checked == 0 {
		return out, fmt.Errorf("no common core counts beyond the sweep base between report and baseline")
	}
	return out, nil
}

// RunCoreScaling executes the sweep. GOMAXPROCS is set per run and restored
// before returning; the log callback (may be nil) receives one line per run.
func RunCoreScaling(sp ScalingSpec, logf Logf) (*ScalingReport, error) {
	sp = sp.WithDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("scenario core-scaling: %d nodes over TCP loopback, %d closed-loop clients, %d docs x %dB, %.1fs per core count, sweep %v",
		sp.Nodes, sp.Clients, sp.NumDocs, sp.BodyBytes, sp.Duration, sp.Procs)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	rep := &ScalingReport{
		Schema: ScalingSchema, Scenario: "core-scaling",
		Spec: sp, HostProcs: runtime.NumCPU(),
	}
	// One or more full sweeps; each sweep's efficiency curve is computed
	// against its own base run (mixing bases across sweeps would pair
	// unrelated measurements).
	sweeps := make([][]ScalingRun, 0, sp.Repeat)
	for rpt := 0; rpt < sp.Repeat; rpt++ {
		var sweep []ScalingRun
		for _, procs := range sp.Procs {
			if procs <= 0 {
				return nil, fmt.Errorf("workload: invalid proc count %d", procs)
			}
			runtime.GOMAXPROCS(procs)
			run, err := scalingRunOnce(sp, procs)
			if err != nil {
				return nil, fmt.Errorf("core-scaling procs=%d: %w", procs, err)
			}
			sweep = append(sweep, run)
			logf("  procs=%d: %9.0f req/s (%6.0f/core, jain %.3f, hit %.3f, fast-served %d)",
				procs, run.ThroughputRPS, run.PerCoreRPS, run.Jain, run.HitRate, run.FastServed)
		}
		if base := sweep[0]; base.ThroughputRPS > 0 {
			for i := range sweep {
				sweep[i].Efficiency = round6(sweep[i].PerCoreRPS * float64(base.Procs) / base.ThroughputRPS)
			}
		}
		sweeps = append(sweeps, sweep)
	}
	// Conservative selection per core count: the lowest efficiency seen
	// (for the base: the lowest throughput). A baseline built this way is a
	// floor real hardware and healthy code always clear.
	for i := range sp.Procs {
		best := sweeps[0][i]
		for _, sweep := range sweeps[1:] {
			if i == 0 {
				if sweep[i].ThroughputRPS < best.ThroughputRPS {
					best = sweep[i]
				}
			} else if sweep[i].Efficiency < best.Efficiency {
				best = sweep[i]
			}
		}
		rep.Runs = append(rep.Runs, best)
	}
	// Headline speedup is per-sweep (each high-proc run over its OWN base)
	// and, across repeats, the minimum — mixing one sweep's peak with
	// another sweep's low base would inflate the figure the acceptance
	// criterion is judged on.
	for si, sweep := range sweeps {
		best := 0.0
		if base := sweep[0]; base.ThroughputRPS > 0 {
			for _, r := range sweep {
				if s := r.ThroughputRPS / base.ThroughputRPS; s > best {
					best = s
				}
			}
		}
		if si == 0 || best < rep.SpeedupMaxOverOne {
			rep.SpeedupMaxOverOne = round6(best)
		}
	}
	logf("  host cores: %d; max speedup over 1 proc: %.2fx", rep.HostProcs, rep.SpeedupMaxOverOne)
	for _, r := range rep.Runs {
		logf("  procs=%d shards=%d: eff=%.3f (%6.0f req/s/core)", r.Procs, r.Shards, r.Efficiency, r.PerCoreRPS)
	}
	return rep, nil
}

// scalingRunOnce drives the shared closed-loop harness against a fresh TCP
// cluster with procs shard loops per server.
func scalingRunOnce(sp ScalingSpec, procs int) (ScalingRun, error) {
	res, err := RunClosedLoop(ClosedLoopSpec{
		Seed: sp.Seed, Nodes: sp.Nodes, Clients: sp.Clients,
		NumDocs: sp.NumDocs, BodyBytes: sp.BodyBytes, ZipfSkew: sp.ZipfSkew,
		Duration:  sp.Duration,
		Network:   transport.TCPNetwork{},
		NumShards: procs,
	})
	if err != nil {
		return ScalingRun{}, err
	}
	return ScalingRun{
		Procs: procs, Shards: procs,
		Responses:     res.Responses,
		ThroughputRPS: res.ThroughputRPS,
		PerCoreRPS:    round6(res.ThroughputRPS / float64(procs)),
		Jain:          res.Jain,
		HitRate:       res.HitRate,
		MeanHops:      res.MeanHops,
		ServingNodes:  res.ServingNodes,
		FastServed:    res.FastServed,
		Forwarded:     res.Forwarded,
		Coalesced:     res.Coalesced,
	}, nil
}

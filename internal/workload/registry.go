package workload

// The scenario registry: every benchmark webwave-bench can run, the report
// schema it writes, and — for the reports CI holds against a committed
// baseline — how benchgate decodes that schema and which checks it applies.
// A report's checks live in the file that defines the report, each
// threshold a named constant next to the check that uses it.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// Logf receives a scenario's progress lines.
type Logf = func(format string, args ...any)

// Params are the knobs webwave-bench exposes. Zero means "the scenario's
// default"; each scenario reads only the knobs it understands.
type Params struct {
	Seed     int64
	Mode     string // trace scenarios: fast (virtual time) or live
	Nodes    int
	Clients  int
	Duration float64
	Rate     float64
	Window   float64

	Speedup     float64 // live trace replay: schedule time compression
	Transport   string  // live trace replay: mem or tcp
	WireVersion int     // live trace replay: TCP wire codec
	EvictPolicy string  // live trace replay: lru, heat or gdsf
	BodyBytes   int     // wire-throughput, core-scaling
	DocBytes    int     // trace replay, bigger-than-ram
	CacheBudget int64
	DiskBudget  int64

	Procs         []int // core-scaling GOMAXPROCS sweep
	Repeat        int
	KillFraction  float64
	HeartbeatMS   int
	Ks            []int // hot-key forest widths
	WriteFraction float64
	Writes        int
	Subtrees      int
	LeavesPer     int
	Docs          int
	Rounds        int
	ReadsPerWrite int
	K             int
	SettleMS      int
}

// Scenario is one named benchmark: how it runs and what its report is.
type Scenario struct {
	Name   string
	About  string // one line for `webwave-bench -list`
	Schema string
	// Run executes the scenario and returns its report; nil for scenarios
	// with their own runner (the multi-process swarm).
	Run func(p Params, logf Logf) (any, error)
	// Fails formats a failed gate's summary from the FAIL count; empty for
	// reports that are not gated.
	Fails string
	gate  func(rep, base []byte) ([]Check, error)
}

// Gated reports whether the scenario's report is held against a baseline.
func (s Scenario) Gated() bool { return s.gate != nil }

// Checks decodes a report and its baseline (both already known to carry
// s.Schema) and applies the report's checks.
func (s Scenario) Checks(rep, base []byte) ([]Check, error) {
	if s.gate == nil {
		return nil, fmt.Errorf("schema %q has no gate", s.Schema)
	}
	return s.gate(rep, base)
}

// Check is one gated assertion's verdict, printed as "ok   line",
// "FAIL line" or "warn line" (a warning never fails the gate).
type Check struct {
	Verdict string
	Line    string
}

func (c Check) String() string { return fmt.Sprintf("%-4s %s", c.Verdict, c.Line) }

// Failed reports whether the check fails the gate.
func (c Check) Failed() bool { return c.Verdict == "FAIL" }

func check(ok bool, format string, args ...any) Check {
	v := "ok"
	if !ok {
		v = "FAIL"
	}
	return Check{Verdict: v, Line: fmt.Sprintf(format, args...)}
}

// samePin errors unless report and baseline ran the same workload: a
// smaller tree, a gentler rate or a kinder failure schedule is not the
// gated scenario, so the baseline pins the whole spec.
func samePin[S any](rep, base S) error {
	if !reflect.DeepEqual(rep, base) {
		return fmt.Errorf("report spec %+v and baseline spec %+v are different workloads; regenerate the baseline",
			rep, base)
	}
	return nil
}

// gateOf decodes both documents as R and runs R's checks.
func gateOf[R any, P interface {
	*R
	Checks(base *R) ([]Check, error)
}](rep, base []byte) ([]Check, error) {
	r, b := new(R), new(R)
	if err := json.Unmarshal(rep, r); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(base, b); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return P(r).Checks(b)
}

// Scenarios returns every registered scenario: the trace replays first,
// then the special-purpose measurements.
func Scenarios() []Scenario {
	var out []Scenario
	for _, sp := range TraceSpecs() {
		d := sp.WithDefaults()
		out = append(out, Scenario{
			Name: sp.Name, Schema: Schema,
			About: fmt.Sprintf("%3d nodes, %4d docs, %-7s popularity, %-7s arrivals, %.0f req/s for %.0fs",
				d.Nodes, d.NumDocs, d.Popularity, d.Arrival, d.TotalRate, d.Duration),
			Run:   traceRunner(sp),
			Fails: "%d cache regression(s) vs baseline",
			gate:  gateOf[Report],
		})
	}
	return append(out,
		Scenario{
			Name: "wire-throughput", Schema: WireSchema,
			About: "live TCP stack, v1 (JSON) vs v2 (binary) wire protocol, closed-loop saturation",
			Run: func(p Params, logf Logf) (any, error) {
				return RunWire(WireSpec{Seed: p.Seed, Nodes: p.Nodes, Clients: p.Clients,
					Duration: p.Duration, BodyBytes: p.BodyBytes}, logf)
			},
		},
		Scenario{
			Name: "core-scaling", Schema: ScalingSchema,
			About: "live TCP stack, GOMAXPROCS sweep, req/s + per-core efficiency + Jain + hit rate",
			Run: func(p Params, logf Logf) (any, error) {
				return RunCoreScaling(ScalingSpec{Seed: p.Seed, Nodes: p.Nodes, Clients: p.Clients,
					Duration: p.Duration, BodyBytes: p.BodyBytes, Procs: p.Procs, Repeat: p.Repeat}, logf)
			},
			Fails: "%d core-scaling regression(s) vs baseline",
			gate:  gateOf[ScalingReport],
		},
		Scenario{
			Name: "chaos", Schema: ChaosSchema,
			About: "live cluster under node churn: kill/restart interior nodes, availability + repair time + post-repair Jain",
			Run: func(p Params, logf Logf) (any, error) {
				return RunChaos(chaosSpec(p), logf)
			},
			Fails: "%d chaos gate violation(s)",
			gate:  gateOf[ChaosReport],
		},
		Scenario{
			Name: "restart", Schema: RestartSchema,
			About: "chaos workload twice, cold vs warm (disk-tier) restarts: post-restart availability + reabsorb + recovered docs",
			Run: func(p Params, logf Logf) (any, error) {
				return RunRestart(RestartSpec{ChaosSpec: chaosSpec(p),
					CacheBudgetBytes: p.CacheBudget, DiskBudgetBytes: p.DiskBudget}, logf)
			},
			Fails: "%d restart gate violation(s)",
			gate:  gateOf[RestartReport],
		},
		Scenario{
			Name: "bigger-than-ram", Schema: BigramSchema,
			About: "corpus ~10x memory budget, three passes (in-ram / mem-only / two-tier): hit-rate retention + disk hits",
			Run: func(p Params, logf Logf) (any, error) {
				return RunBigram(BigramSpec{Seed: p.Seed, Nodes: p.Nodes, Clients: p.Clients,
					BodyBytes: p.DocBytes, Duration: p.Duration,
					CacheBudgetBytes: p.CacheBudget, DiskBudgetBytes: p.DiskBudget}, logf)
			},
			Fails: "%d bigger-than-ram gate violation(s)",
			gate:  gateOf[BigramReport],
		},
		Scenario{
			Name: "hot-key", Schema: HotkeySchema,
			About: "deterministic replication-forest model: single-doc flash crowd, k=1 vs k=3 trees, scaling + Jain + promote/demote round trip",
			Run: func(p Params, logf Logf) (any, error) {
				return RunHotkey(HotkeySpec{Seed: p.Seed, Nodes: p.Nodes, BaseRate: p.Rate,
					Duration: p.Duration, Window: p.Window, Ks: p.Ks}, logf)
			},
			Fails: "%d hot-key gate violation(s)",
			gate:  gateOf[HotkeyReport],
		},
		Scenario{
			Name: "update-heavy", Schema: UpdateSchema,
			About: "live cluster, one schedule twice (read-only vs write mix): staleness percentiles + hit-rate cost of mutability",
			Run: func(p Params, logf Logf) (any, error) {
				return RunUpdate(UpdateSpec{Seed: p.Seed, Nodes: p.Nodes, TotalRate: p.Rate,
					Duration: p.Duration, WriteFraction: p.WriteFraction}, logf)
			},
			Fails: "%d update-heavy gate violation(s)",
			gate:  gateOf[UpdateReport],
		},
		Scenario{
			Name: "invalidation-storm", Schema: StormSchema,
			About: "live forest, repeated invalidate + leaf read storm: per-write origin fetches vs clients (lease collapse)",
			Run: func(p Params, logf Logf) (any, error) {
				return RunStorm(StormSpec{Seed: p.Seed, Subtrees: p.Subtrees, LeavesPer: p.LeavesPer,
					Clients: p.Clients, Writes: p.Writes, K: p.K, SettleMS: p.SettleMS}, logf)
			},
			Fails: "%d invalidation-storm gate violation(s)",
			gate:  gateOf[StormReport],
		},
		Scenario{
			Name: "session", Schema: SessionSchema,
			About: "live star, seeded write-then-read-elsewhere schedule twice (token on/off): read-my-writes violations",
			Run: func(p Params, logf Logf) (any, error) {
				return RunSession(SessionSpec{Seed: p.Seed, Subtrees: p.Subtrees, LeavesPer: p.LeavesPer,
					Docs: p.Docs, Rounds: p.Rounds, ReadsPerWrite: p.ReadsPerWrite}, logf)
			},
			Fails: "%d session gate violation(s)",
			gate:  gateOf[SessionReport],
		},
		Scenario{
			Name: "swarm", Schema: SwarmSchema,
			About: "multi-process swarm over real TCP, one rack SIGKILLed and re-exec'd warm (run it with webwave-swarm)",
			Fails: "%d swarm gate violation(s)",
			gate:  gateOf[SwarmReport],
		},
	)
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// ForSchema returns the scenario whose report carries schema (the first,
// for the trace replays that share one).
func ForSchema(schema string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Schema == schema {
			return s, true
		}
	}
	return Scenario{}, false
}

func chaosSpec(p Params) ChaosSpec {
	return ChaosSpec{Seed: p.Seed, Nodes: p.Nodes, TotalRate: p.Rate, Duration: p.Duration,
		KillFraction: p.KillFraction, HeartbeatMS: p.HeartbeatMS}
}

// traceRunner replays the trace scenario sp in virtual time (fast mode,
// deterministic) or against a live cluster, with p's overrides applied.
func traceRunner(sp Spec) func(p Params, logf Logf) (any, error) {
	return func(p Params, logf Logf) (any, error) {
		override(&sp.Nodes, p.Nodes)
		override(&sp.Duration, p.Duration)
		override(&sp.TotalRate, p.Rate)
		override(&sp.Window, p.Window)
		override(&sp.CacheBudgetBytes, p.CacheBudget)
		override(&sp.DocBytes, p.DocBytes)
		override(&sp.EvictPolicy, p.EvictPolicy)
		var rep *Report
		var err error
		switch p.Mode {
		case "", "fast":
			rep, err = RunFast(sp, p.Seed)
		case "live":
			rep, err = RunLive(sp, p.Seed, LiveOptions{Speedup: p.Speedup, Clients: p.Clients,
				Transport: p.Transport, WireVersion: p.WireVersion})
		default:
			return nil, fmt.Errorf("unknown mode %q (want fast or live)", p.Mode)
		}
		if err != nil {
			return nil, err
		}
		rep.log(logf)
		return rep, nil
	}
}

func override[T int | int64 | float64 | string](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// WriteJSON writes a report as indented JSON; identical reports produce
// identical bytes.
func WriteJSON(path string, rep any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

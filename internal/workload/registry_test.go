package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselinesPassTheirOwnChecks holds every committed scenario baseline
// against itself through the registry: each must resolve to a gated
// scenario and pass every check.
func TestBaselinesPassTheirOwnChecks(t *testing.T) {
	paths, err := filepath.Glob("../../bench/BENCH_*_baseline.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines: %v", err)
	}
	gated := 0
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var head struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(blob, &head); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		sc, ok := ForSchema(head.Schema)
		if !ok {
			continue // the allocs/op baseline belongs to cmd/benchwire
		}
		gated++
		checks, err := sc.Checks(blob, blob)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(checks) < 3 {
			t.Errorf("%s: only %d checks", p, len(checks))
		}
		for _, c := range checks {
			if c.Failed() {
				t.Errorf("%s: %s", p, c)
			}
		}
	}
	if gated != 11 {
		t.Errorf("%d gated baselines, want 11", gated)
	}
}

func TestCheckVerdictLines(t *testing.T) {
	for _, tc := range []struct {
		c    Check
		want string
	}{
		{check(true, "hit rate %.2f", 0.5), "ok   hit rate 0.50"},
		{check(false, "hit rate %.2f", 0.5), "FAIL hit rate 0.50"},
		{Check{Verdict: "warn", Line: "raw drop"}, "warn raw drop"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%q, want %q", got, tc.want)
		}
	}
	if (Check{Verdict: "warn"}).Failed() {
		t.Error("a warning failed the gate")
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Scenarios() {
		if seen[s.Name] {
			t.Errorf("scenario %s registered twice", s.Name)
		}
		seen[s.Name] = true
		if s.About == "" || s.Schema == "" {
			t.Errorf("scenario %s lacks a description or schema", s.Name)
		}
		if s.Gated() != (s.Fails != "") {
			t.Errorf("scenario %s: gated %v but failure summary %q", s.Name, s.Gated(), s.Fails)
		}
	}
	if _, ok := Find("flash-crowd"); !ok {
		t.Error("trace scenario flash-crowd not registered")
	}
	if _, ok := ForSchema("webwave-nope/v1"); ok {
		t.Error("unknown schema resolved")
	}
	wire, _ := Find("wire-throughput")
	if _, err := wire.Checks(nil, nil); err == nil {
		t.Error("the ungated wire-throughput report produced checks")
	}
	if _, err := gateOf[ChaosReport]([]byte("{"), []byte("{}")); err == nil {
		t.Error("malformed report decoded")
	}
	if _, err := gateOf[ChaosReport]([]byte("{}"), []byte("[")); err == nil {
		t.Error("malformed baseline decoded")
	}
}

// TestTraceRunnerOverrides runs a shrunk trace scenario through the
// registry and checks the overrides land in the report's spec.
func TestTraceRunnerOverrides(t *testing.T) {
	sc, _ := Find("flash-crowd")
	rep, err := sc.Run(Params{Seed: 1, Nodes: 7, Rate: 40, Duration: 20}, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.(*Report)
	if r.Spec.Nodes != 7 || r.Spec.TotalRate != 40 || r.Spec.Duration != 20 {
		t.Errorf("overrides lost: %+v", r.Spec)
	}
	if _, err := sc.Run(Params{Mode: "warp"}, nil); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode: %v", err)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"webwave/internal/workload"
)

func TestListRuns(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestUnknownMode(t *testing.T) {
	if err := run([]string{"-scenario", "zipf-steady", "-mode", "warp"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestParseProcsRejectsGarbage(t *testing.T) {
	var sweep []int
	for _, bad := range []string{"1,x,4", "0", " , "} {
		if err := intList(&sweep)(bad); err == nil {
			t.Errorf("garbage list %q accepted", bad)
		}
	}
	if err := intList(&sweep)("1,2,4"); err != nil || len(sweep) != 3 || sweep[2] != 4 {
		t.Fatalf("intList(1,2,4) = %v, %v", sweep, err)
	}
	if err := run([]string{"-scenario", "core-scaling", "-procs", "1,x"}); err == nil {
		t.Fatal("-procs garbage accepted")
	}
}

func TestSwarmHasItsOwnRunner(t *testing.T) {
	if err := run([]string{"-scenario", "swarm"}); err == nil {
		t.Fatal("swarm ran without its process runner")
	}
}

// TestSessionScenarioCLI drives the session scenario through the CLI
// dispatch at small scale and checks the written report parses with the
// headline shape intact: zero violations with tokens, some without.
func TestSessionScenarioCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	if err := run([]string{"-scenario", "session", "-seed", "1",
		"-subtrees", "2", "-leaves-per", "2", "-docs", "2",
		"-rounds", "6", "-reads-per-write", "3", "-json", path}); err != nil {
		t.Fatalf("small session run: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := &workload.SessionReport{}
	if err := json.Unmarshal(blob, rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != workload.SessionSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, workload.SessionSchema)
	}
	if rep.WithTokens.Violations != 0 {
		t.Errorf("with tokens: %d violations, want 0", rep.WithTokens.Violations)
	}
	if rep.WithoutTokens.Violations == 0 {
		t.Error("without tokens: no violations provoked")
	}
}

func TestFsFlagSet(t *testing.T) {
	// An explicit -clients reaches the storm scenario; unset, StormSpec's
	// own default (120) applies.
	if err := run([]string{"-scenario", "invalidation-storm", "-seed", "1",
		"-subtrees", "2", "-leaves-per", "2", "-clients", "12", "-writes", "2",
		"-k", "1", "-settle-ms", "20"}); err != nil {
		t.Fatalf("explicit small storm run: %v", err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webwave/internal/workload"
)

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	blob, ok := v.([]byte)
	if !ok {
		var err error
		if blob, err = json.Marshal(v); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	return path
}

// gate runs benchgate on rep against base (reports, or raw JSON bytes) and
// returns what a shell would see: stdout, the stderr line, the exit code.
func gate(t *testing.T, rep, base any) string {
	t.Helper()
	dir := t.TempDir()
	return verdict(writeJSON(t, dir, "rep.json", rep), writeJSON(t, dir, "base.json", base))
}

func verdict(rep, base string) string {
	var out bytes.Buffer
	if err := run([]string{"-report", rep, "-baseline", base}, &out); err != nil {
		return fmt.Sprintf("%sbenchgate: %v\nexit 1\n", out.String(), err)
	}
	return out.String() + "exit 0\n"
}

// expectPass asserts the gate passes rep against base.
func expectPass(t *testing.T, rep, base any) {
	t.Helper()
	if got := gate(t, rep, base); !strings.HasSuffix(got, "exit 0\n") || strings.Contains(got, "FAIL") {
		t.Fatalf("gate failed an in-band report:\n%s", got)
	}
}

// expectFail asserts the gate fails rep against base with every want
// appearing in its output (a FAIL line, or the error of an incomparable
// pair).
func expectFail(t *testing.T, rep, base any, want ...string) {
	t.Helper()
	got := gate(t, rep, base)
	if !strings.HasSuffix(got, "exit 1\n") {
		t.Fatalf("gate passed, want failure on %q:\n%s", want, got)
	}
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("output lacks %q:\n%s", w, got)
		}
	}
}

// TestDispatch covers everything that fails before any check runs.
func TestDispatch(t *testing.T) {
	dir := t.TempDir()
	chaos := writeJSON(t, dir, "chaos.json", chaosReport(0.99, 1.0, 2, 0))
	shrunk := chaosReport(0.99, 1.0, 2, 0)
	shrunk.Spec.Nodes = 7
	wire := &workload.WireReport{Schema: workload.WireSchema}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no flags", nil, "both -report and -baseline are required"},
		{"unknown flag", []string{"-chaos-report", chaos}, "flag provided but not defined"},
		{"unknown schema", []string{"-report", writeJSON(t, dir, "x.json", []byte(`{"schema":"webwave-x/v9"}`)),
			"-baseline", writeJSON(t, dir, "y.json", []byte(`{"schema":"webwave-x/v9"}`))}, `no gate for schema "webwave-x/v9"`},
		{"ungated schema", []string{"-report", writeJSON(t, dir, "w.json", wire),
			"-baseline", writeJSON(t, dir, "w2.json", wire)}, `no gate for schema "webwave-wire-throughput/v1"`},
		{"schemas differ", []string{"-report", chaos, "-baseline", "../../bench/BENCH_update_baseline.json"},
			`has schema "webwave-chaos/v1" but baseline ../../bench/BENCH_update_baseline.json has "webwave-update/v1"`},
		{"missing report", []string{"-report", filepath.Join(dir, "absent.json"), "-baseline", chaos}, "no such file"},
		{"missing baseline", []string{"-report", chaos, "-baseline", filepath.Join(dir, "absent.json")}, "no such file"},
		{"unreadable report", []string{"-report", dir, "-baseline", chaos}, "is a directory"},
		{"malformed report", []string{"-report", writeJSON(t, dir, "bad.json", []byte(`{"schema":`)),
			"-baseline", chaos}, "bad.json: unexpected end of JSON input"},
		{"malformed baseline", []string{"-report", chaos,
			"-baseline", writeJSON(t, dir, "bad2.json", []byte(`[1, 2`))}, "bad2.json: unexpected end of JSON input"},
		{"mistyped field", []string{"-report", writeJSON(t, dir, "typed.json",
			[]byte(`{"schema":"webwave-chaos/v1","availability":"high"}`)), "-baseline", chaos}, "report: json: cannot unmarshal"},
		{"spec differs", []string{"-report", writeJSON(t, dir, "shrunk.json", shrunk), "-baseline", chaos},
			"are different workloads; regenerate the baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
			if out.Len() > 0 {
				t.Errorf("checks printed before a dispatch error:\n%s", out.String())
			}
		})
	}
}

// TestGolden holds every committed baseline against itself and against a
// deliberately regressed copy (testdata/regressed: at least two gated
// fields past their thresholds). The goldens are the verdicts of the
// per-family gate this command replaced — one flag pair per report kind —
// so each must come out byte-identical, exit code included.
func TestGolden(t *testing.T) {
	goldens, err := filepath.Glob("testdata/golden/*.self")
	if err != nil || len(goldens) != 11 {
		t.Fatalf("want 11 self goldens, got %d (%v)", len(goldens), err)
	}
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), ".self")
		base := "../../bench/BENCH_" + name + "_baseline.json"
		for _, tc := range []struct{ kind, rep string }{
			{"self", base},
			{"regressed", "testdata/regressed/BENCH_" + name + ".json"},
		} {
			t.Run(name+"/"+tc.kind, func(t *testing.T) {
				want, err := os.ReadFile("testdata/golden/" + name + "." + tc.kind)
				if err != nil {
					t.Fatal(err)
				}
				if got := verdict(tc.rep, base); got != string(want) {
					t.Errorf("verdict differs from golden\n got:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// Command benchgate holds a freshly produced benchmark report against its
// committed baseline and fails (exit 1) on a regression, so a regression
// breaks the build instead of the tail latency of some future long-haul run.
//
// It reads the report's "schema", decodes both documents into the matching
// report type, and prints one line per check — "ok", "FAIL" or "warn" (a
// warning never fails the gate) — before exiting. The checks and their
// thresholds live with the report type in internal/workload (the Checks
// method of each report). A baseline of a different schema, or one that
// pins a different workload, is an error: regenerate the baseline.
//
// Usage:
//
//	benchgate -report BENCH_chaos.json -baseline bench/BENCH_chaos_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"webwave/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	reportPath := fs.String("report", "", "report JSON produced by this run")
	basePath := fs.String("baseline", "", "committed baseline JSON of the same schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reportPath == "" || *basePath == "" {
		return fmt.Errorf("both -report and -baseline are required")
	}
	rep, schema, err := load(*reportPath)
	if err != nil {
		return err
	}
	base, baseSchema, err := load(*basePath)
	if err != nil {
		return err
	}
	if schema != baseSchema {
		return fmt.Errorf("%s has schema %q but baseline %s has %q", *reportPath, schema, *basePath, baseSchema)
	}
	sc, ok := workload.ForSchema(schema)
	if !ok || !sc.Gated() {
		return fmt.Errorf("%s: no gate for schema %q", *reportPath, schema)
	}
	checks, err := sc.Checks(rep, base)
	bad := 0
	for _, c := range checks {
		fmt.Fprintln(out, c)
		if c.Failed() {
			bad++
		}
	}
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf(sc.Fails, bad)
	}
	return nil
}

// load reads a report and its schema.
func load(path string) ([]byte, string, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return blob, head.Schema, nil
}

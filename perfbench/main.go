// Command perfbench is the repository's socket-level benchmark. It starts
// the WebWave document service in its own process and drives it with a
// seeded open-loop Poisson schedule over keep-alive HTTP connections,
// timing every request from its scheduled send time and checking every
// response body. See README.md for the workloads and the traced run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 28 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench service:", err)
			os.Exit(1)
		}
		return
	}
	// The driver allocates per request; collecting less often keeps its
	// own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	ok, err := benchMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose service to build")
	trace := fs.Int("trace", 0, "1 installs the taps")
	cpuList := fs.String("cpus", "", "comma-separated CPUs to run on (empty = unpinned)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cpus, err := parseCPUs(*cpuList)
	if err != nil {
		return err
	}
	pinService(cpus)
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	return runService(w, *trace == 1)
}

func benchMain(args []string) (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "schedule seed")
	seconds := fs.Int("seconds", 28, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *seconds < 1 {
		return false, errors.New("--seconds must be at least 1")
	}
	serviceCPUs = pinDriver()
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return false, err
		}
		ws = []workload{w}
	}
	allOK := true
	for _, w := range ws {
		out, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
		allOK = allOK && out.Correct
	}
	return allOK, nil
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

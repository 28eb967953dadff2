// Command bench is the one benchmark of the five-tier store: it
// assembles users → edge → gateway → shards → WAL-fed day-rolls in one
// process over loopback, drives one of four named workloads at it,
// checks the bytes that come back, and reports what a user of the stack
// sees (end to end) and what each tier spent (per layer). README.md has
// the glossary; BENCHMARK.json at the repository root declares the
// metrics and their regression bounds.
//
// Usage:
//
//	bench --workload browse-fleet --seed 1 --seconds 15 --trace 0
//	bench                       # all four workloads, both trace modes
//	bench -smoke                # the same on a 2,000-app rig, 1 s windows
//	bench compare A.jsonl B.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, in both trace modes)")
		seed    = flag.Uint64("seed", 1, "op-list seed; the tiers see only the requests generated from it")
		seconds = flag.Float64("seconds", 15, "measured window length")
		trace   = flag.Int("trace", 0, "0: untraced window, end-to-end metrics; 1: counters, traced pass and direct calls, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "2,000-app rig and 1 s windows: exercises the harness, measures nothing")
		outDir  = flag.String("out", ".bench_build", "directory for results.jsonl and spans-<workload>.jsonl")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	type job struct {
		wl    *workload
		trace bool
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		jobs = append(jobs, job{w, *trace != 0})
	}
	ok := true
	for _, j := range jobs {
		res, err := runWorkload(j.wl, *seed, *seconds, j.trace, *smoke, *outDir)
		if err != nil {
			fatal(err)
		}
		if err := res.appendTo(filepath.Join(*outDir, "results.jsonl")); err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload executes one workload in one trace mode.
func runWorkload(w *workload, seed uint64, seconds float64, trace, smoke bool, outDir string) (*result, error) {
	sz := fullSizes(seconds)
	if smoke {
		seconds = 1
		sz = smokeSizes()
	}
	r := &run{wl: w, seed: seed, seconds: seconds, trace: trace, sz: sz, outDir: outDir,
		out: newResult(w.name, seed, seconds, trace, smoke)}
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.out.Rig = r.rig.spec
	return r.out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// Command experiments runs the paper's tables and figures against the
// synthetic stores and prints the regenerated rows/series. With no
// arguments it runs everything in order; pass experiment IDs (T1, F2..F19,
// X1..X5; -list prints them) to run a subset.
//
// Usage:
//
//	experiments                 # run all at default scale
//	experiments -scale 0.5 F8 F9 F19
//	experiments -markdown > EXPERIMENTS.out.md
//	experiments -workers 8 F8            # bound the fit-pipeline parallelism
//	experiments -cpuprofile cpu.pprof F9 # profile the fit pipeline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"planetapps/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command; every flag value reaches experiments.NewSuite
// as given, so a bad one is refused there before any experiment runs.
func run(args []string, stdout, stderr io.Writer) error {
	def := experiments.DefaultConfig()
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		seed       = fs.Uint64("seed", def.Seed, "experiment seed")
		scale      = fs.Float64("scale", def.Scale, "store population scale")
		days       = fs.Int("days", def.Days, "simulated measurement period")
		users      = fs.Int("comment-users", def.CommentUsers, "behaviour-study population")
		workers    = fs.Int("workers", 0, "experiment parallelism (0 = GOMAXPROCS); results are identical for any value")
		markdown   = fs.Bool("markdown", false, "wrap output in markdown code fences per experiment")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	_ = fs.Parse(args) // ExitOnError: a malformed flag has already exited with usage

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	suite, err := experiments.NewSuite(experiments.Config{
		Seed: *seed, Scale: *scale, Days: *days, CommentUsers: *users,
		Workers: *workers,
	})
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("experiments: cpuprofile: %w", err)
		}
	}
	// The profiles are written whether or not an experiment failed.
	runErr := runAll(suite, fs.Args(), *markdown, stdout, stderr)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fmt.Errorf("experiments: memprofile: %w", err)
		}
	}
	return runErr
}

// runAll runs the named experiments (all of them when ids is empty) and
// prints each one's tables to stdout, its wall time to stderr.
func runAll(suite *experiments.Suite, ids []string, markdown bool, stdout, stderr io.Writer) error {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		if markdown {
			fmt.Fprintf(stdout, "## %s\n\n```\n", id)
		} else {
			fmt.Fprintf(stdout, "===== %s =====\n", id)
		}
		res, err := experiments.Run(suite, id)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
		for _, t := range res.Tables() {
			if _, err := t.WriteTo(stdout); err != nil {
				return fmt.Errorf("experiments: %s: %w", id, err)
			}
			fmt.Fprintln(stdout)
		}
		if markdown {
			fmt.Fprintf(stdout, "```\n\n")
		}
		fmt.Fprintf(stderr, "experiments: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

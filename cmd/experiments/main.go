// Command experiments runs the paper's tables and figures and prints the
// regenerated rows/series: on simulated stores, or with -db on the one
// store a cmd/crawl database holds. With no arguments it runs everything in
// order; pass experiment IDs (T1, F2..F19, X1..X5; -list prints them) to
// run a subset. On a crawl, a runner that reads no store or needs a
// simulation's ground truth (F19, X1, X2, X3, X5) prints one "skipped:"
// line instead of its tables, and -scale, -days and -comment-users, which
// describe simulated stores, are refused.
//
// Usage:
//
//	experiments                 # run all at default scale
//	experiments -scale 0.5 F8 F9 F19
//	experiments -db crawl.jsonl T1 F2 F8 # the same runners on a crawl
//	experiments -markdown > EXPERIMENTS.out.md
//	experiments -workers 8 F8            # bound the per-store and per-candidate fan-outs
//	experiments -cpuprofile cpu.pprof F9 # profile the fit pipeline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"planetapps/internal/db"
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
		workers    = fs.Int("workers", 0, "stores a runner fits at once and Monte Carlo candidates a fit scores at once (0 = GOMAXPROCS); model kinds, sweep points and replicates still run together; results are identical for any value")
		markdown   = fs.Bool("markdown", false, "wrap output in markdown code fences per experiment")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		dbPath     = fs.String("db", "", "run on this crawl database (cmd/crawl -out) instead of simulated stores")
	)
	_ = fs.Parse(args) // ExitOnError: a malformed flag has already exited with usage

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	suite, err := newSuite(fs, *dbPath, experiments.Config{
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
	runErr := experiments.Print(stdout, suite, fs.Args(), *markdown, stderr)
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

// newSuite is the suite the flags describe: simulated stores, or the one
// store of the crawl database at dbPath.
func newSuite(fs *flag.FlagSet, dbPath string, cfg experiments.Config) (*experiments.Suite, error) {
	if dbPath == "" {
		return experiments.NewSuite(cfg)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale", "days", "comment-users":
			if err == nil {
				err = fmt.Errorf("experiments: -%s describes simulated stores; -db reads a crawl", f.Name)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	d, err := db.LoadFile(dbPath)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	ds, err := experiments.Load(d)
	if err != nil {
		return nil, err
	}
	return experiments.NewDatasetSuite(ds, cfg.Seed, cfg.Workers)
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

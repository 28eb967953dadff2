// Command simulate runs one workload model with explicit parameters and
// dumps the resulting rank-downloads curve (log-spaced sample), shape
// diagnostics, and optionally the full curve as CSV.
//
// Usage:
//
//	simulate -model app-clustering -apps 60000 -users 600000 -d 3.3 \
//	         -zr 1.7 -zc 1.4 -p 0.9 -clusters 30
//	simulate -model zipf -apps 10000 -users 10000 -d 10 -zr 1.2 -csv out.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"planetapps/internal/model"
	"planetapps/internal/report"
	"planetapps/internal/trace"
)

func main() {
	var (
		modelName = flag.String("model", "app-clustering", "workload model: zipf, zipf-at-most-once (zipf-amo, amo), app-clustering (clustering)")
		apps      = flag.Int("apps", 10000, "number of apps (A)")
		users     = flag.Int("users", 100000, "number of users (U)")
		d         = flag.Float64("d", 5, "downloads per user")
		zr        = flag.Float64("zr", 1.4, "global Zipf exponent")
		zc        = flag.Float64("zc", 1.4, "within-cluster Zipf exponent")
		p         = flag.Float64("p", 0.9, "clustering probability")
		clusters  = flag.Int("clusters", 30, "number of clusters (C)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		workers   = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS); the curve is identical for any value")
		csvPath   = flag.String("csv", "", "write the full rank curve to this CSV file")
		tracePath = flag.String("trace", "", "write the event stream to this binary trace file")
	)
	flag.Parse()

	kind, err := model.ParseKind(*modelName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(2)
	}

	cfg := model.Config{
		Apps: *apps, Users: *users, DownloadsPerUser: *d,
		ZipfGlobal: *zr, ZipfCluster: *zc, ClusterP: *p, Clusters: *clusters,
	}
	w, err := model.NewSimulator(kind, cfg)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		n, err := trace.Record(f, w, *seed)
		if err != nil {
			log.Fatalf("simulate: recording trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("simulate: %v", err)
		}
		fmt.Printf("wrote %s (%d events)\n", *tracePath, n)
	}
	res := w.RunParallel(*seed, *workers)
	curve := res.Curve()

	fmt.Printf("model=%s apps=%d users=%d d=%.2f total_downloads=%d\n",
		kind, *apps, *users, *d, res.Total)
	fmt.Printf("trunk_exponent=%.3f head_flatness=%.3f tail_drop=%.3f top=%.0f\n",
		curve.TrunkExponent(0.02, 0.3), curve.HeadFlatness(), curve.TailDrop(), curve.Top())

	idxs := report.LogSpacedIndexes(len(curve.Downloads), 20)
	tbl := report.NewTable("rank curve (log-spaced sample)", "rank", "downloads")
	for _, i := range idxs {
		tbl.AddRow(i+1, curve.Downloads[i])
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		log.Fatalf("simulate: %v", err)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatalf("simulate: %v", err)
		}
		cw := csv.NewWriter(f)
		if err := cw.Write([]string{"rank", "downloads"}); err != nil {
			log.Fatalf("simulate: %v", err)
		}
		for i, v := range curve.Downloads {
			if err := cw.Write([]string{strconv.Itoa(i + 1), strconv.FormatFloat(v, 'f', -1, 64)}); err != nil {
				log.Fatalf("simulate: %v", err)
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			log.Fatalf("simulate: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("simulate: %v", err)
		}
		fmt.Printf("wrote %s (%d rows)\n", *csvPath, len(curve.Downloads))
	}
}

// Tracereplay records an APP-CLUSTERING workload as a compact binary trace
// file and replays it into a cache simulation — the workflow for driving
// external systems (CDN testbeds, cache prototypes) with the paper's
// workload model instead of unrealistic Zipf generators.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"planetapps"
	"planetapps/internal/cache"
	"planetapps/internal/model"
)

func main() {
	cfg := planetapps.WorkloadConfig{
		Apps:             5000,
		Users:            20000,
		DownloadsPerUser: 8,
		ZipfGlobal:       1.4,
		ZipfCluster:      1.4,
		ClusterP:         0.9,
		Clusters:         30,
	}
	w, err := planetapps.NewWorkload(planetapps.APPClustering, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Record the workload to a trace file.
	path := filepath.Join(os.TempDir(), "planetapps-demo.trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	n, err := planetapps.RecordTrace(f, w, 42)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d download events to %s (%d bytes, %.1f bytes/event)\n",
		n, path, info.Size(), float64(info.Size())/float64(n))

	// Replay the trace through an LRU cache, as an external consumer would.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	lru := cache.NewLRU[int32](cfg.Apps / 20) // 5% cache
	var requests, hits int64
	replayed, err := planetapps.ReplayTrace(rf, func(e model.Event) bool {
		requests++
		if lru.Access(e.App) {
			hits++
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d events through a 5%% LRU cache: %.1f%% hit ratio\n",
		replayed, 100*float64(hits)/float64(requests))
	fmt.Println("\nthe same trace file can drive any external cache or CDN prototype")
	if err := os.Remove(path); err != nil {
		log.Fatal(err)
	}
}

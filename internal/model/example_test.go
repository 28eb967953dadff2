package model

import (
	"fmt"
	"log"
)

// ExampleNewSimulator demonstrates simulating the paper's APP-CLUSTERING
// workload model and inspecting the resulting popularity curve.
func ExampleNewSimulator() {
	cfg := Config{
		Apps:             1000,
		Users:            5000,
		DownloadsPerUser: 6,
		ZipfGlobal:       1.4,
		ZipfCluster:      1.4,
		ClusterP:         0.9,
		Clusters:         20,
	}
	w, err := NewSimulator(AppClustering, cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := w.Run(1)
	fmt.Println("total downloads:", res.Total)
	// Output:
	// total downloads: 30000
}

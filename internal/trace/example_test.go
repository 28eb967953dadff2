package trace

import (
	"bytes"
	"fmt"
	"log"

	"planetapps/internal/cache"
	"planetapps/internal/model"
)

// ExampleReplay records an APP-CLUSTERING workload (what `simulate -trace`
// writes) and replays it into a cache, the way an external consumer — a
// CDN testbed, a cache prototype — would read the file.
func ExampleReplay() {
	cfg := model.Config{
		Apps: 5000, Users: 2000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	}
	sim, err := model.NewSimulator(model.AppClustering, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var file bytes.Buffer
	recorded, err := Record(&file, sim, 42)
	if err != nil {
		log.Fatal(err)
	}

	lru := cache.NewLRU[int32](cfg.Apps / 20) // holds 5% of the apps
	var hits int64
	replayed, err := Replay(&file, func(e model.Event) bool {
		if lru.Access(e.App) {
			hits++
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recorded", recorded, "events, replayed", replayed)
	fmt.Println("a 5% LRU cache serves more than half of them:", 2*hits > replayed)
	// Output:
	// recorded 16000 events, replayed 16000
	// a 5% LRU cache serves more than half of them: true
}

package main

import (
	"encoding/binary"
	"hash/fnv"

	"planetapps/internal/model"
)

// The request classes latencies and spans are reported by. detail is any
// single-app document GET (the detail page; on crawl-direct also the
// comment stream), list is one cursor page, write is any of the three
// POST endpoints.
type opClass uint8

const (
	classDetail opClass = iota
	classList
	classWrite
	numClasses
)

var classNames = [numClasses]string{"detail", "list", "write"}

// numClients is fixed: four closed-loop clients, one keep-alive
// connection each, whatever the box. That is two per core of the box the
// bounds were calibrated on. With one per core, every request parks its
// client while the server side runs, cores fall idle and are woken
// through the hypervisor, and run-to-run spread was about a third wider
// (measured: rps IQR/median 10-15 % against 4-10 % on the cheap-request
// workloads); at four per core it widened again. Four connections still
// keep wal batches at 1-2 records.
const numClients = 4

// writeMix is the share of events the write funnel selects.
const writeMix = 0.20

// genEvents draws n download events from the paper's APP-CLUSTERING
// model over a catalog of apps apps. The stream is fetch-at-most-once
// per user, so every (user, app) pair in it is distinct and a write
// derived from an event can never be refused as a duplicate.
func genEvents(apps, n int, seed uint64) ([]model.Event, error) {
	sim, err := model.NewSimulator(model.AppClustering, model.Config{
		Apps: apps, Users: 200000, DownloadsPerUser: 8,
		ZipfGlobal: 1.4, ZipfCluster: 1.4, ClusterP: 0.9, Clusters: 30,
	})
	if err != nil {
		return nil, err
	}
	evs := make([]model.Event, 0, n)
	sim.Stream(seed, func(e model.Event) bool {
		evs = append(evs, e)
		return len(evs) < n
	})
	return evs, nil
}

// splitEvents deals events round-robin: client k takes indices ≡ k
// (mod numClients).
func splitEvents(evs []model.Event) [numClients][]model.Event {
	var out [numClients][]model.Event
	for i, e := range evs {
		out[i%numClients] = append(out[i%numClients], e)
	}
	return out
}

// digestEvents fingerprints an event list (FNV-64a over user, app).
func digestEvents(evs []model.Event) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint32(b[0:4], uint32(e.User))
		binary.LittleEndian.PutUint32(b[4:8], uint32(e.App))
		h.Write(b[:]) //nolint:errcheck // hash.Hash never fails
	}
	return h.Sum64()
}

// writeHash mixes (seed, user, app) into the bits every write-funnel
// decision derives from: the same splitmix64 finalizer loadgen uses, so
// the funnel here selects events the way cmd/loadtest -write-mix does.
func writeHash(seed uint64, user, app int32) uint64 {
	x := seed ^ uint64(uint32(user))<<32 ^ uint64(uint32(app))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// funnel is what one event adds to its detail GET: nothing (80 % of
// events), a download, and for a quarter and an eighth of the writers a
// rating and a comment too.
type funnel struct {
	download, rate, comment bool
	rateStars, commentStars int
}

func funnelFor(seed uint64, e model.Event) funnel {
	h := writeHash(seed, e.User, e.App)
	if float64(h>>40)/float64(1<<24) >= writeMix {
		return funnel{}
	}
	return funnel{
		download: true,
		rate:     h&0x3 == 0, rateStars: int(h>>8)%5 + 1,
		comment: h&0x7 == 0, commentStars: int(h>>16)%5 + 1,
	}
}

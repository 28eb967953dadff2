package storeserver

import (
	"sync"
	"sync/atomic"

	"planetapps/internal/marketsim"
)

// prewarmTask identifies one document to encode ahead of traffic.
type prewarmTask struct {
	kind byte // 'S' stats, 'L' listing page, 'D' app detail, 'C' app comments
	idx  int
}

// prewarm encodes the hottest documents of a freshly published snapshot
// with a small bounded worker pool, off the publish path. Without it the
// first post-swap requests for every invalidated document pay the encode
// cost inline — the cold-cache latency spike the day-roll loadgen
// scenario measures. No-op unless Config.PrewarmDocs > 0.
//
// The budget is apportioned across routes in proportion to their observed
// request counts (the existing per-route metrics): listing pages are
// warmed in page order, detail and comment documents for the
// most-downloaded apps first. Encoding a document that was carried
// forward already filled is free (the single-flight fill short-circuits),
// so the budget naturally concentrates on invalidated documents.
func (s *Server) prewarm(sn *snapshot) {
	budget := s.cfg.PrewarmDocs
	if budget <= 0 {
		return
	}
	workers := s.cfg.PrewarmWorkers
	if workers <= 0 {
		workers = 2
	}
	go func() {
		tasks := make([]prewarmTask, 0, budget)
		// Every crawl pass starts at the stats document; always warm it.
		tasks = append(tasks, prewarmTask{kind: 'S'})
		budget--
		lc := s.routes["list"].total.Value()
		dc := s.routes["detail"].total.Value()
		cc := s.routes["comments"].total.Value()
		if sn.comments == nil && sn.comTab == nil {
			cc = 0
		}
		sum := lc + dc + cc
		if sum == 0 {
			// No traffic history yet: spend everything on listing pages,
			// the entry point of a catalog crawl.
			lc, sum = 1, 1
		}
		nList := int(float64(budget) * float64(lc) / float64(sum))
		if nList > sn.pages {
			nList = sn.pages
		}
		nDetail := int(float64(budget) * float64(dc) / float64(sum))
		nCom := int(float64(budget) * float64(cc) / float64(sum))
		for p := 0; p < nList; p++ {
			tasks = append(tasks, prewarmTask{kind: 'L', idx: p})
		}
		if k := max(nDetail, nCom); k > 0 {
			hot := topDownloads(sn.ex, k)
			for i, app := range hot {
				if i < nDetail {
					tasks = append(tasks, prewarmTask{kind: 'D', idx: app})
				}
				if i < nCom {
					tasks = append(tasks, prewarmTask{kind: 'C', idx: app})
				}
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					if s.snap.Load() != sn {
						return // superseded mid-warm; stop wasting encodes
					}
					t := tasks[i]
					switch t.kind {
					case 'S':
						sn.statsDoc()
					case 'L':
						sn.listDoc(t.idx)
					case 'D':
						sn.detailDoc(t.idx)
					case 'C':
						sn.commentsDoc(t.idx)
					}
					s.prewarmed.Inc()
				}
			}()
		}
		wg.Wait()
	}()
}

// topDownloads returns the indexes of the k most-downloaded apps in the
// export (order among the top k unspecified), via a size-k min-heap over
// one O(apps) pass.
func topDownloads(e *marketsim.Export, k int) []int {
	n := e.NumApps()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	heap := make([]int, 0, k)
	less := func(a, b int) bool { return e.Downloads(heap[a]) < e.Downloads(heap[b]) }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && less(l, min) {
				min = l
			}
			if r < len(heap) && less(r, min) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := 0; i < n; i++ {
		if len(heap) < k {
			heap = append(heap, i)
			if len(heap) == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(j)
				}
			}
			continue
		}
		if e.Downloads(i) > e.Downloads(heap[0]) {
			heap[0] = i
			siftDown(0)
		}
	}
	return heap
}

package model

import (
	"fmt"
	"runtime"

	"planetapps/internal/dist"
	"planetapps/internal/rng"
)

// Simulator runs one of the three workload models as a Monte Carlo
// simulation over Config. A Simulator precomputes the sampling tables and
// may be reused across runs and seeds; runs are independent.
type Simulator struct {
	kind Kind
	cfg  Config

	global *dist.Zipf
	cm     *ClusterMap
	// clusterDist[c] is the within-cluster Zipf over cluster c's members.
	// Distributions are shared between clusters of equal size.
	clusterDist []*dist.Zipf
}

// NewSimulator validates the configuration and precomputes sampler state.
func NewSimulator(kind Kind, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(kind); err != nil {
		return nil, err
	}
	s := &Simulator{kind: kind, cfg: cfg}
	var err error
	s.global, err = dist.NewZipf(cfg.Apps, cfg.ZipfGlobal)
	if err != nil {
		return nil, err
	}
	if kind == AppClustering {
		s.cm = cfg.ClusterMap
		if s.cm == nil {
			s.cm = RoundRobin(cfg.Apps, cfg.Clusters)
		}
		sizes := make([]int, s.cm.Clusters())
		for c, members := range s.cm.Members {
			sizes[c] = len(members)
		}
		if s.clusterDist, err = dist.NewZipfs(sizes, cfg.ZipfCluster); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Kind returns the model kind this simulator runs.
func (s *Simulator) Kind() Kind { return s.kind }

// Config returns the configuration the simulator was built with.
func (s *Simulator) Config() Config { return s.cfg }

// maxRetries bounds the rejection loop when re-drawing an already-downloaded
// app. After the cap the sampler falls back to a deterministic scan so the
// simulation always terminates, even for degenerate configurations where a
// user has downloaded nearly everything.
const maxRetries = 64

// userState tracks one simulated user's history. The zero value is a user
// with no downloads.
//
// Membership (fetch-at-most-once) has two representations with identical
// semantics: an epoch-stamped array when `seen` is set (the Run/RunParallel
// hot path — one O(apps) slice per worker reused across its users, zero
// per-draw map traffic), and a lazily-allocated map otherwise (Stream keeps
// many users alive at once, where a per-user apps-sized array would blow up
// memory).
type userState struct {
	// downloaded marks apps this user has fetched; used when seen == nil.
	downloaded map[int32]struct{}
	// seen[app] == epoch marks apps downloaded by the current user; the
	// stamp bump in reset makes clearing free.
	seen  []int32
	epoch int32
	// history lists previous downloads in order; APP-CLUSTERING picks the
	// cluster of a uniformly random element (§5.1 step 2.1: "randomly
	// chosen from previous downloads with a uniform probability").
	history []int32
}

func (u *userState) has(app int32) bool {
	if u.seen != nil {
		return u.seen[app] == u.epoch
	}
	_, ok := u.downloaded[app]
	return ok
}

func (u *userState) record(app int32) {
	if u.seen != nil {
		u.seen[app] = u.epoch
	} else {
		if u.downloaded == nil {
			u.downloaded = make(map[int32]struct{}, 8)
		}
		u.downloaded[app] = struct{}{}
	}
	u.history = append(u.history, app)
}

// nextZipf draws from the global Zipf; when atMostOnce, it rejects apps the
// user already has, falling back to the best-ranked unseen app after
// maxRetries. The second return is false only if every app is downloaded.
func (s *Simulator) nextZipf(r *rng.RNG, u *userState, atMostOnce bool) (int32, bool) {
	for try := 0; try < maxRetries; try++ {
		app := int32(s.global.Sample(r) - 1)
		if !atMostOnce || !u.has(app) {
			return app, true
		}
	}
	// Fallback: first unseen app by global rank.
	for i := 0; i < s.cfg.Apps; i++ {
		if !u.has(int32(i)) {
			return int32(i), true
		}
	}
	return 0, false
}

// nextClustered draws one APP-CLUSTERING download for a user with history.
// With probability p it redraws within the cluster of a random previous
// download (step 2.1); otherwise from the global distribution (step 2.2).
// Both branches respect fetch-at-most-once.
func (s *Simulator) nextClustered(r *rng.RNG, u *userState) (int32, bool) {
	if len(u.history) == 0 || !r.Bool(s.cfg.ClusterP) {
		return s.nextZipf(r, u, true)
	}
	for try := 0; try < maxRetries; try++ {
		prev := u.history[r.Intn(len(u.history))]
		c := s.cm.OfApp[prev]
		members := s.cm.Members[c]
		app := members[s.clusterDist[c].Sample(r)-1]
		if !u.has(app) {
			return app, true
		}
	}
	// Fallback: best-ranked unseen app in the cluster of the user's first
	// download, else a global draw.
	c := s.cm.OfApp[u.history[0]]
	for _, app := range s.cm.Members[c] {
		if !u.has(app) {
			return app, true
		}
	}
	return s.nextZipf(r, u, true)
}

// nextDownload advances one user by one download under the simulator's model.
func (s *Simulator) nextDownload(r *rng.RNG, u *userState) (int32, bool) {
	switch s.kind {
	case Zipf:
		return s.nextZipf(r, u, false)
	case ZipfAtMostOnce:
		return s.nextZipf(r, u, true)
	case AppClustering:
		return s.nextClustered(r, u)
	default:
		panic(fmt.Sprintf("model: unknown kind %d", int(s.kind)))
	}
}

// Run simulates all users and returns per-app download totals. The run is
// deterministic in (simulator config, seed).
//
// Every user draws from a private RNG stream derived as root.Split(userIndex)
// from the run's root generator, so users are mutually independent and the
// result does not depend on the order users are simulated in: Run(seed) and
// RunParallel(seed, w) are byte-identical for every worker count w.
func (s *Simulator) Run(seed uint64) Result {
	return s.RunParallel(seed, 1)
}

// userStreams derives one private generator per user from the run's root.
// Splitting happens in user-index order on one goroutine, so stream i is a
// pure function of (seed, i) no matter which worker later consumes it. The
// family lives in a single value slice (SplitInto) — a per-user pointer
// allocation here dominates the engine's sequential overhead otherwise.
func (s *Simulator) userStreams(seed uint64) []rng.RNG {
	root := rng.New(seed)
	streams := make([]rng.RNG, s.cfg.Users)
	for i := range streams {
		root.SplitInto(uint64(i), &streams[i])
	}
	return streams
}

// simulateUsers runs users [lo, hi) against a shard accumulator owned by the
// calling worker (no synchronization on the hot loop) and returns the number
// of downloads generated. downloads must have length cfg.Apps.
func (s *Simulator) simulateUsers(streams []rng.RNG, lo, hi int, downloads []int64) int64 {
	var total int64
	u := userState{seen: make([]int32, s.cfg.Apps)}
	for i := lo; i < hi; i++ {
		r := &streams[i]
		n := userDownloads(r, s.cfg.DownloadsPerUser)
		if n > s.cfg.Apps {
			n = s.cfg.Apps
		}
		// Reset per-user state: bumping the epoch invalidates the previous
		// user's marks without touching the array.
		u.history = u.history[:0]
		u.epoch++
		for k := 0; k < n; k++ {
			app, ok := s.nextDownload(r, &u)
			if !ok {
				break
			}
			u.record(app)
			downloads[app]++
			total++
		}
	}
	return total
}

// RunParallel is Run partitioned across a worker pool: users are split into
// contiguous shards, each worker accumulates into a private []int64 merged
// at the end, so the hot loop carries no atomics or locks. Because every
// user owns a split RNG stream, the result is byte-identical to Run(seed)
// for any worker count. workers <= 0 means runtime.GOMAXPROCS(0).
func (s *Simulator) RunParallel(seed uint64, workers int) Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, s.cfg.Users)
	streams := s.userStreams(seed)
	res := Result{Downloads: make([]int64, s.cfg.Apps)}
	if workers <= 1 {
		res.Total = s.simulateUsers(streams, 0, s.cfg.Users, res.Downloads)
		return res
	}
	shards := make([][]int64, workers)
	totals := make([]int64, workers)
	ForEach(workers, workers, func(w int) error { //nolint:errcheck // fn never fails
		shards[w] = make([]int64, s.cfg.Apps)
		totals[w] = s.simulateUsers(streams, w*s.cfg.Users/workers, (w+1)*s.cfg.Users/workers, shards[w])
		return nil
	})
	for w := 0; w < workers; w++ {
		for i, d := range shards[w] {
			res.Downloads[i] += d
		}
		res.Total += totals[w]
	}
	return res
}

// Event is one simulated download in a time-ordered stream.
type Event struct {
	// User is the downloading user's index.
	User int32
	// App is the downloaded app's index.
	App int32
}

// Stream generates the same workload as Run but interleaved across users in
// a global random order, approximating concurrent arrivals at the store —
// the order a delivery cache observes. Events are delivered to fn; a false
// return stops the stream early. Stream returns the number of events
// delivered.
//
// Memory is O(U + total downloads recorded per active user); per-user
// download sets are freed as users finish.
func (s *Simulator) Stream(seed uint64, fn func(Event) bool) int64 {
	r := rng.New(seed)
	remaining := make([]int, s.cfg.Users)
	active := make([]int32, 0, s.cfg.Users)
	for i := range remaining {
		n := userDownloads(r, s.cfg.DownloadsPerUser)
		if n > s.cfg.Apps {
			n = s.cfg.Apps
		}
		remaining[i] = n
		if n > 0 {
			active = append(active, int32(i))
		}
	}
	states := make(map[int32]*userState, 1024)
	var count int64
	for len(active) > 0 {
		idx := r.Intn(len(active))
		user := active[idx]
		u := states[user]
		if u == nil {
			u = &userState{}
			states[user] = u
		}
		app, ok := s.nextDownload(r, u)
		if ok {
			u.record(app)
			count++
			if !fn(Event{User: user, App: app}) {
				return count
			}
		}
		remaining[user]--
		if remaining[user] == 0 || !ok {
			// Swap-remove the finished user and drop its state.
			active[idx] = active[len(active)-1]
			active = active[:len(active)-1]
			delete(states, user)
		}
	}
	return count
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"planetapps/internal/fleet"
	"planetapps/internal/model"
)

// sizes are the knobs -smoke shrinks; nothing else about a run varies.
type sizes struct {
	apps         int           // catalog size of the browse and mixed rigs
	siteApps     int           // catalog size of each of the crawl's stores
	commentUsers int           // commenting population where comments are installed
	warmup       time.Duration // excluded lead-in before every window
	setups       int           // rig builds per run; setup_s is their median
	slice        time.Duration // length of one slice of a timed window
	eventsPerSec int           // op-list length per second of run, generously above any closed-loop rate
}

func fullSizes(seconds float64) sizes {
	return sizes{
		apps: 100000, commentUsers: 20000,
		// The crawl is fixed work; its stores are sized so that crawling
		// all of them takes about as long as the other workloads' windows.
		siteApps: int(250 * seconds),
		warmup:   2 * time.Second, setups: 3, eventsPerSec: 40000,
		// Long enough for a few thousand requests of the slowest workload,
		// short enough that a window has many.
		slice: 500 * time.Millisecond,
	}
}

func smokeSizes() sizes {
	return sizes{
		apps: 2000, siteApps: 300, commentUsers: 400,
		warmup: 200 * time.Millisecond, setups: 1, slice: 500 * time.Millisecond, eventsPerSec: 40000,
	}
}

// run is one execution of one workload.
type run struct {
	wl      *workload
	seed    uint64
	seconds float64
	trace   bool
	sz      sizes
	outDir  string

	rig     *rig
	clients [numClients]*client
	events  [numClients][]model.Event
	next    [numClients]int // each client's position in its event list

	// completed counts finished requests across clients, for the slice
	// sampler; committed is the day the last finished roll committed.
	completed atomic.Int64
	committed atomic.Int64
	rolls     []time.Duration // wall time of each in-window day-roll

	state any // the workload's own per-run state
	out   *result
}

// event returns client k's next event, wrapping at the end of its list.
func (r *run) event(k int) model.Event {
	evs := r.events[k]
	e := evs[r.next[k]%len(evs)]
	r.next[k]++
	return e
}

// do issues req on c and counts it for the slice sampler.
func (r *run) do(c *client, req *request) *response {
	resp := c.do(req)
	r.completed.Add(1)
	return resp
}

// closedLoop drives the given clients for d: each sends its next unit of
// work as soon as the previous one has been answered.
func (r *run) closedLoop(clients []*client, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.wl.step(r, c, k)
			}
		}(k, c)
	}
	wg.Wait()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tick is one slice boundary: the clock, the completed-request count and
// the process CPU time, read together.
type tick struct {
	at  time.Time
	ops int64
	cpu time.Duration
}

// windowStats is what a measured window leaves behind: its slice
// boundaries, the first at the window's start and the last at its end.
type windowStats struct {
	mu    sync.Mutex
	ticks []tick
}

func (ws *windowStats) start() time.Time { return ws.ticks[0].at }

// measure runs window with recording on. A window is cut into slices and
// every end-to-end number is computed per slice; what is reported is the
// best slice (see endToEnd for why). window receives the function that
// ends a slice: a timed window (every > 0) has measure call it every
// that often; a fixed-work window calls it itself where its units of
// work end.
func (r *run) measure(every time.Duration, window func(cut func())) *windowStats {
	for _, c := range r.clients {
		c.recording, c.epoch = true, time.Now()
	}
	ws := &windowStats{}
	cut := func() {
		t := tick{at: time.Now(), ops: r.completed.Load(), cpu: cpuTime()}
		ws.mu.Lock()
		ws.ticks = append(ws.ticks, t)
		ws.mu.Unlock()
	}
	cut()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					cut()
				case <-stop:
					return
				}
			}
		}()
	}
	window(cut)
	close(stop)
	wg.Wait()
	// A timed window ends a hair after its last tick; fold that sliver
	// into the last slice instead of making a slice of it.
	if n := len(ws.ticks); every > 0 && n > 2 && time.Since(ws.ticks[n-1].at) < every/2 {
		ws.ticks = ws.ticks[:n-1]
	}
	cut()
	for _, c := range r.clients {
		c.recording = false
	}
	return ws
}

// withRolls runs body while the operator rolls the serving stores one
// day every interval, each roll timed when record is set, each
// publishing the day it committed so clients can tell a stale answer
// from a fresh one.
func (r *run) withRolls(interval time.Duration, record bool, body func()) {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-t.C:
				if err := r.rollOnce(record); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	body()
	close(stop)
	if err := <-done; err != nil {
		r.out.CheckFailures = append(r.out.CheckFailures, err.Error())
	}
}

func (r *run) rollOnce(record bool) error {
	start := time.Now()
	day, err := fleet.AdvanceFleet(context.Background(), r.rig.admin)
	if err != nil {
		return fmt.Errorf("day-roll: %w", err)
	}
	if record {
		r.rolls = append(r.rolls, time.Since(start))
	}
	r.committed.Store(int64(day))
	return nil
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp builds the workload's rig sz.setups times, keeps the last, and
// returns the median build time: a rig build is a second or two, so one
// reading of it is at the mercy of whatever else the box did that second.
func (r *run) setUp() (time.Duration, error) {
	spec := r.wl.spec(r.sz)
	var times []float64
	for i := 0; i < r.sz.setups; i++ {
		if r.rig != nil {
			r.rig.close()
			r.rig = nil
			runtime.GC()
		}
		start := time.Now()
		rg, err := buildRig(spec)
		if err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start)))
		r.rig = rg
	}
	for k := range r.clients {
		r.clients[k] = newClient(r.wl.entry(r.rig))
		if r.wl.rolls {
			r.clients[k].committed = &r.committed
		}
	}
	return time.Duration(median(times)), nil
}

func (r *run) tearDown() {
	for _, c := range r.clients {
		if c != nil {
			c.close()
		}
	}
	if r.rig != nil {
		r.rig.close()
	}
}

// execute runs the workload end to end and fills r.out.
func (r *run) execute() error {
	wallStart := time.Now()
	load0 := loadAvg()
	defer r.tearDown()

	setup, err := r.setUp()
	if err != nil {
		return err
	}
	window := time.Duration(r.seconds * float64(time.Second))
	nEvents := int(float64(r.sz.eventsPerSec) * (r.seconds + r.sz.warmup.Seconds()))
	evs, err := genEvents(r.rig.spec.Apps, nEvents, r.seed)
	if err != nil {
		return err
	}
	r.out.OpDigest = fmt.Sprintf("%016x", digestEvents(evs))
	r.events = splitEvents(evs)
	if r.wl.prepare != nil {
		r.wl.prepare(r)
	}
	r.wl.warm(r, r.sz.warmup)

	if !r.trace {
		ws := r.wl.window(r, window)
		r.endToEnd(setup, ws)
	} else {
		before := r.readCounters()
		ws := r.wl.window(r, window*4/10)
		r.counterMetrics(before, r.readCounters(), ws)
		r.tracedPass(window*2/10, window*4/10)
		r.directCalls()
	}
	if err := r.wl.verify(r); err != nil {
		r.out.CheckFailures = append(r.out.CheckFailures, err.Error())
	}
	for _, c := range r.clients {
		r.out.Attempted += c.attempted
		r.out.Failed += c.failed
		if c.firstErr != nil {
			r.out.CheckFailures = append(r.out.CheckFailures, "first failed request: "+c.firstErr.Error())
		}
	}
	r.out.Correct = r.out.Failed == 0 && len(r.out.CheckFailures) == 0
	r.out.WallS = time.Since(wallStart).Seconds()
	r.out.noise(load0, loadAvg())
	return nil
}

// classSamples pools the clients' samples of the given classes.
func (r *run) classSamples(classes ...opClass) []sample {
	var out []sample
	for _, c := range r.clients {
		for _, cl := range classes {
			out = append(out, c.samples[cl]...)
		}
	}
	return out
}

// slicePercentiles returns the p-th latency percentile, in microseconds,
// of the samples that completed within each slice, leaving out slices too
// thin to support it.
func slicePercentiles(samples []sample, ws *windowStats, p float64) []float64 {
	per := make([][]int64, len(ws.ticks)-1)
	for _, s := range samples {
		at := ws.start().Add(time.Duration(s.end))
		for i := range per {
			if !at.After(ws.ticks[i+1].at) || i+1 == len(per) {
				per[i] = append(per[i], s.lat)
				break
			}
		}
	}
	var vals []float64
	for _, lat := range per {
		slices.Sort(lat)
		if v, err := percentile(lat, p); err == nil {
			vals = append(vals, float64(v)/1e3)
		}
	}
	return vals
}

// best is the smallest of vs, the largest when higher is better.
func best(vs []float64, higher bool) float64 {
	b := vs[0]
	for _, v := range vs[1:] {
		if (v > b) == higher {
			b = v
		}
	}
	return b
}

// endToEnd turns an untraced window into the end-to-end metrics.
//
// Every rate and latency is computed per slice and the best slice is
// what is reported, not the median and not the whole window. The box
// this runs on is a small VM whose neighbours come and go: for minutes
// at a time the same code takes 15-40 % more CPU per request, and ten
// back-to-back runs then spread by 14-38 % on a whole-window or
// median-slice reading, against 10-16 % on the best of the half-second
// slices (measured; README, "Steadiness"). Interference only ever slows a
// slice down, so the best slice is the one nearest to what the code
// costs. The price is that a cost paid in some slices only — a garbage
// collection, say — is under-weighted; day-rolls, the periodic cost
// this benchmark cares about, are scheduled once per slice so that no
// slice escapes them. The whole-window means are printed beside the
// best-slice numbers as client.*_mean.
func (r *run) endToEnd(setup time.Duration, ws *windowStats) {
	var rps, cpu []float64
	for i := 0; i+1 < len(ws.ticks); i++ {
		a, b := ws.ticks[i], ws.ticks[i+1]
		if ops := float64(b.ops - a.ops); ops > 0 {
			rps = append(rps, ops/b.at.Sub(a.at).Seconds())
			cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/ops)
		}
	}
	m, x := r.out.Metrics, r.out.Extra
	first, last := ws.ticks[0], ws.ticks[len(ws.ticks)-1]
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["rps"] = metric{best(rps, true), "1/s"}
	m["cpu_us_per_op"] = metric{best(cpu, false), "us"}
	m["heap_mb"] = metric{float64(liveHeap()) / (1 << 20), "MiB"}
	x["client.rps_mean"] = metric{float64(last.ops-first.ops) / last.at.Sub(first.at).Seconds(), "1/s"}
	x["client.cpu_us_per_op_mean"] = metric{float64(last.cpu-first.cpu) / 1e3 / float64(last.ops-first.ops), "us"}
	r.out.Samples["rps"] = len(rps)

	latency := func(set map[string]metric, name string, samples []sample, p float64) {
		vals := slicePercentiles(samples, ws, p)
		if len(vals) == 0 {
			return
		}
		set[name] = metric{best(vals, false), "us"}
		r.out.Samples[name] = len(samples)
	}
	detail := r.classSamples(classDetail)
	latency(m, "detail_p50_us", detail, 50)
	latency(m, "op_p99_us", r.classSamples(classDetail, classList, classWrite), 99)
	for _, name := range []string{"detail_p50_us", "op_p99_us"} {
		if _, ok := m[name]; !ok {
			r.out.CheckFailures = append(r.out.CheckFailures, name+": no slice has the samples to support it")
		}
	}

	// The per-class view behind the pooled tail: reported beside it, not
	// gated. No class but detail exists on every workload, and the detail
	// p99 of mixed-rw-roll is the depth of that slice's roll, which spread
	// by 33-43 % over ten runs.
	latency(x, "client.detail_p99_us", detail, 99)
	for _, cl := range []opClass{classList, classWrite} {
		if samples := r.classSamples(cl); len(samples) > 0 {
			latency(x, "client."+classNames[cl]+"_p50_us", samples, 50)
			latency(x, "client."+classNames[cl]+"_p99_us", samples, 99)
		}
	}
	if len(r.rolls) > 0 {
		var ms []float64
		for _, d := range r.rolls {
			ms = append(ms, float64(d)/1e6)
		}
		x["client.roll_p50_ms"] = metric{median(ms), "ms"}
		r.out.Samples["client.roll_p50_ms"] = len(ms)
	}
}

package loadgen

import (
	"time"

	"planetapps/internal/gcstats"
	"planetapps/internal/metrics"
)

// LatencySummary is a latency distribution in milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func summarize(s *metrics.HistogramSnapshot) LatencySummary {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return LatencySummary{
		P50:  ms(s.Quantile(0.50)),
		P90:  ms(s.Quantile(0.90)),
		P95:  ms(s.Quantile(0.95)),
		P99:  ms(s.Quantile(0.99)),
		P999: ms(s.Quantile(0.999)),
		Mean: s.Mean() / 1e6,
		Max:  ms(s.Max),
	}
}

// ClassReport aggregates one request class (detail lookups, APK
// downloads) over the measured (post-warmup) window. PreRoll/PostRoll
// split the window at the day-roll instant when the run was configured
// with one, exposing the post-swap cold-cache latency separately.
type ClassReport struct {
	Class         string          `json:"class"`
	Requests      int64           `json:"requests"`
	OK            int64           `json:"ok"`
	RateLimited   int64           `json:"rate_limited"`
	Errors        int64           `json:"errors"`
	OtherStatus   int64           `json:"other_status"`
	LatencyMS     LatencySummary  `json:"latency_ms"`
	PreRollMS     *LatencySummary `json:"pre_roll_latency_ms,omitempty"`
	PostRollMS    *LatencySummary `json:"post_roll_latency_ms,omitempty"`
	PreRollCount  int64           `json:"pre_roll_requests,omitempty"`
	PostRollCount int64           `json:"post_roll_requests,omitempty"`

	// Wire accounting: body bytes as transferred, split by the encoding
	// the server actually sent. GzipResponses counts responses that
	// arrived compressed; GzipBytes is their wire size, IdentityBytes the
	// wire size of everything that arrived plain.
	GzipResponses int64 `json:"gzip_responses"`
	GzipBytes     int64 `json:"gzip_bytes"`
	IdentityBytes int64 `json:"identity_bytes"`
}

// WriteReport aggregates one write endpoint over the measured window.
// The outcome vocabulary mirrors the store's ack semantics: Accepted
// writes were logged fresh, Deduped ones replayed an Idempotency-Key,
// Duplicate ones lost the natural-key race (409), Backpressure429 ones
// hit a full WAL, Rejected covers every other non-2xx verdict.
type WriteReport struct {
	Endpoint        string         `json:"endpoint"`
	Posts           int64          `json:"posts"`
	Accepted        int64          `json:"accepted"`
	Deduped         int64          `json:"deduped"`
	Duplicate       int64          `json:"duplicate"`
	Backpressure429 int64          `json:"backpressure_429"`
	Rejected        int64          `json:"rejected"`
	Errors          int64          `json:"errors"`
	LatencyMS       LatencySummary `json:"latency_ms"`
}

// DayRollReport records the mid-run AdvanceDay a day-roll scenario fired.
type DayRollReport struct {
	// Rolled is false when the run ended before the roll was due.
	Rolled bool `json:"rolled"`
	// AtSec is when the roll completed, relative to run start.
	AtSec float64 `json:"at_sec"`
	// RollMS is how long the AdvanceDay itself took.
	RollMS float64 `json:"roll_ms"`
	Error  string  `json:"error,omitempty"`
	// PostRollDay is the first X-Store-Day observed on a response whose
	// request started after the roll completed (-1 if none were seen);
	// MixedEpochResponses counts post-roll responses that disagreed with
	// it. A working two-phase fleet swap keeps this at zero: once the
	// commit returns, no client ever sees the old epoch again.
	PostRollDay         int64 `json:"post_roll_day"`
	MixedEpochResponses int64 `json:"mixed_epoch_responses"`
}

// GCReport summarizes the generator process's garbage-collection activity
// over the run — the load generator usually shares a process with the
// store under test (cmd/loadtest), so this is the GC cost of serving the
// replayed traffic. Cycles/PauseTotalMS/CPUFraction are deltas over the
// run; HeapObjects/HeapMB are end-of-run occupancy.
type GCReport struct {
	Cycles       uint64  `json:"cycles"`
	PauseTotalMS float64 `json:"pause_total_ms"`
	PauseP50US   float64 `json:"pause_p50_us"`
	PauseP99US   float64 `json:"pause_p99_us"`
	CPUFraction  float64 `json:"cpu_fraction"`
	HeapObjects  uint64  `json:"heap_objects"`
	HeapMB       float64 `json:"heap_mb"`
}

// Report is the JSON-serializable outcome of one Run. Counts cover the
// measured window; WarmupRequests tallies what the warmup excluded.
type Report struct {
	Mode           string        `json:"mode"`
	Events         int64         `json:"events"`
	Requests       int64         `json:"requests"`
	WarmupRequests int64         `json:"warmup_requests"`
	OK             int64         `json:"ok"`
	RateLimited    int64         `json:"rate_limited"`
	Errors         int64         `json:"errors"`
	OtherStatus    int64         `json:"other_status"`
	Dropped        int64         `json:"dropped"`
	GzipResponses  int64         `json:"gzip_responses"`
	GzipBytes      int64         `json:"gzip_bytes"`
	IdentityBytes  int64         `json:"identity_bytes"`
	DurationSec    float64       `json:"duration_sec"`
	MeasuredSec    float64       `json:"measured_sec"`
	ThroughputRPS  float64       `json:"throughput_rps"`
	Classes        []ClassReport `json:"classes"`
	// Writes appears when the run drove a write mix. Write requests are
	// accounted here, not in Requests/ThroughputRPS, so read-path
	// baselines stay comparable across write-mix settings; WriteAccepted
	// and WriteDeduped total the per-endpoint rows (the cross-check
	// against the store's WAL counters).
	Writes        []WriteReport  `json:"writes,omitempty"`
	WriteAccepted int64          `json:"write_accepted,omitempty"`
	WriteDeduped  int64          `json:"write_deduped,omitempty"`
	DayRoll       *DayRollReport `json:"day_roll,omitempty"`
	GC            *GCReport      `json:"gc,omitempty"`
}

func (g *Generator) report(elapsed time.Duration) *Report {
	rep := &Report{
		Mode:        g.cfg.Mode.String(),
		Events:      g.events,
		Dropped:     g.dropped.Value(),
		DurationSec: elapsed.Seconds(),
	}
	measured := elapsed - g.cfg.Warmup
	if measured < 0 {
		measured = 0
	}
	rep.MeasuredSec = measured.Seconds()
	for _, class := range readClasses {
		cs := g.classes[class]
		cr := ClassReport{
			Class:         class,
			Requests:      cs.sent.Value(),
			OK:            cs.ok.Value(),
			RateLimited:   cs.rateLimited.Value(),
			Errors:        cs.errors.Value(),
			OtherStatus:   cs.otherStatus.Value(),
			LatencyMS:     summarize(cs.latency.Snapshot()),
			GzipResponses: cs.gzipResponses.Value(),
			GzipBytes:     cs.gzipBytes.Value(),
			IdentityBytes: cs.identityBytes.Value(),
		}
		if g.cfg.DayRollAfter > 0 {
			if pre := cs.preRoll.Snapshot(); pre.Count > 0 {
				s := summarize(pre)
				cr.PreRollMS, cr.PreRollCount = &s, pre.Count
			}
			if post := cs.postRoll.Snapshot(); post.Count > 0 {
				s := summarize(post)
				cr.PostRollMS, cr.PostRollCount = &s, post.Count
			}
		}
		if cr.Requests == 0 && class != ClassDetail {
			continue
		}
		rep.Requests += cr.Requests
		rep.WarmupRequests += cs.warmup.Value()
		rep.OK += cr.OK
		rep.RateLimited += cr.RateLimited
		rep.Errors += cr.Errors
		rep.OtherStatus += cr.OtherStatus
		rep.GzipResponses += cr.GzipResponses
		rep.GzipBytes += cr.GzipBytes
		rep.IdentityBytes += cr.IdentityBytes
		rep.Classes = append(rep.Classes, cr)
	}
	if rep.MeasuredSec > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / rep.MeasuredSec
	}
	if g.cfg.WriteMix > 0 {
		for _, ep := range writeEndpoints {
			ws := g.writes[ep]
			wr := WriteReport{
				Endpoint:        ep,
				Posts:           ws.sent.Value(),
				Accepted:        ws.accepted.Value(),
				Deduped:         ws.deduped.Value(),
				Duplicate:       ws.duplicate.Value(),
				Backpressure429: ws.backpressure.Value(),
				Rejected:        ws.rejected.Value(),
				Errors:          ws.errors.Value(),
				LatencyMS:       summarize(ws.latency.Snapshot()),
			}
			rep.WriteAccepted += wr.Accepted
			rep.WriteDeduped += wr.Deduped
			rep.WarmupRequests += ws.warmup.Value()
			rep.Writes = append(rep.Writes, wr)
		}
	}
	if g.cfg.DayRollAfter > 0 {
		dr := &DayRollReport{PostRollDay: g.postRollDay.Load()}
		if mark := g.rollMark.Load(); mark > 0 {
			dr.Rolled = true
			dr.AtSec = float64(mark-g.startedAt.UnixNano()) / 1e9
			dr.RollMS = float64(g.rollDur) / 1e6
			dr.MixedEpochResponses = g.mixedEpoch.Value()
			if g.rollErr != nil {
				dr.Error = g.rollErr.Error()
			}
		}
		rep.DayRoll = dr
	}
	delta := gcstats.Read().Since(g.gcStart)
	rep.GC = &GCReport{
		Cycles:       delta.Cycles,
		PauseTotalMS: float64(delta.PauseTotal()) / 1e6,
		PauseP50US:   float64(delta.PauseQuantile(0.50)) / 1e3,
		PauseP99US:   float64(delta.PauseQuantile(0.99)) / 1e3,
		CPUFraction:  delta.CPUFraction(),
		HeapObjects:  delta.HeapObjects,
		HeapMB:       float64(delta.HeapBytes) / (1 << 20),
	}
	return rep
}

// Package wal is the store's in-memory ingest buffer: one batched lane
// per store that absorbs client mutations (downloads, ratings, comments)
// during a serving day and hands the accumulated day-delta to the
// day-roll, where it merges into the next snapshot. The design keeps the
// RCU read path untouched — writes never take the server's snapshot lock,
// never mutate served state, and become visible only through the same
// two-phase snapshot swap every other day change uses.
//
// Ingest is group-committed: an Append joins the open batch and blocks
// until the batch seals (size or time triggered); only a sealed record is
// acknowledged, so an acked write is in the delta the next Rotate
// returns. Nothing is written to disk: the acknowledged writes not yet
// rotated (Stats.Pending) are lost when the process exits, cleanly or
// not.
//
// The day-delta is deliberately an order-independent structure (per-app
// download counts, per-app comment sets deduplicated on a natural key and
// canonically sorted at rotation), so the merged state is a pure function
// of the accepted set: the same writes produce byte-identical snapshots
// whether they arrived on one connection or eight.
package wal

import (
	"errors"
	"sort"
	"sync"
	"time"

	"planetapps/internal/metrics"
)

// Kind is the mutation type.
type Kind uint8

const (
	// Download increments the app's download count.
	Download Kind = iota
	// Rate appends a rating (1..5) to the app's comment stream.
	Rate
	// Comment appends a comment (rating 0..5, 0 = omitted) to the app's
	// comment stream.
	Comment
)

// String names the kind for metrics labels and errors.
func (k Kind) String() string {
	switch k {
	case Download:
		return "download"
	case Rate:
		return "rate"
	case Comment:
		return "comment"
	default:
		return "unknown"
	}
}

// Rec is one accepted mutation.
type Rec struct {
	Kind   Kind
	App    int32
	User   int32
	Rating int8 // Rate: 1..5; Comment: 0..5 (0 = no rating attached)
}

// key packs the natural identity of a record — (kind, app, user) — into
// one uint64 for exact duplicate detection. App and user IDs are
// non-negative int32s (31 bits each), leaving the top bits for the kind.
func (r Rec) key() uint64 {
	return uint64(r.Kind)<<62 | uint64(uint32(r.App))<<31 | uint64(uint32(r.User))
}

// Ack is the verdict on one Append.
type Ack struct {
	// Duplicate reports that the record's natural key (kind, app, user)
	// was already accepted — the caller answers 409.
	Duplicate bool
	// Deduped reports an Idempotency-Key replay: the verdict of the
	// original attempt is returned and nothing was logged again.
	Deduped bool
}

// ErrBackpressure is returned when the log's bounded memory is full; the
// caller should answer 429 with RetryAfter.
var ErrBackpressure = errors.New("wal: ingest buffer full")

// ErrKeyReused is returned when an Idempotency-Key already named a
// different write (another kind, app or user); nothing is logged.
var ErrKeyReused = errors.New("wal: Idempotency-Key already used for a different write")

// Config sizes the log. The zero value gets sensible defaults from New.
type Config struct {
	// MaxBatch seals a group-commit batch when it holds this many
	// records. <= 0 uses 64.
	MaxBatch int
	// FlushInterval seals a non-empty under-filled batch after at least
	// this long, bounding ack latency at low write rates. <= 0 uses 1ms.
	// The wait is longer than asked: an idle Go runtime sleeps on timers
	// in whole milliseconds (a netpoll wait under 1ms rounds up to 1ms),
	// so at 1ms a batch sealed after 1.42-1.46ms on average under the
	// benchmark's mixed-rw-roll workload on a 2-vCPU VM.
	FlushInterval time.Duration
	// MaxPending bounds records buffered awaiting the next rotation;
	// appends past the bound fail with ErrBackpressure (the server's
	// 429). <= 0 uses 1<<20.
	MaxPending int64
}

// RetryAfter is the backoff hint attached to backpressure rejections.
const RetryAfter = 500 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1 << 20
	}
	return c
}

// Delta is one epoch's accumulated mutations, rotated out at the
// day-roll. Downloads is commutative (per-app counts) and Comments is
// sorted canonically per app, so applying a Delta is order-independent:
// byte-identical state regardless of arrival interleaving.
type Delta struct {
	// Downloads maps app ID -> download-count increment.
	Downloads map[int32]int64
	// Comments maps app ID -> its new comment-stream records (Rate and
	// Comment kinds), sorted by (User, Kind, Rating).
	Comments map[int32][]Rec
	// Records is the total record count across both maps.
	Records int
}

// Empty reports whether the delta carries no mutations.
func (d *Delta) Empty() bool { return d == nil || d.Records == 0 }

// Apps returns the delta's touched app IDs in ascending order — the
// canonical application order for deterministic merges.
func (d *Delta) Apps() []int32 {
	ids := make([]int32, 0, len(d.Downloads)+len(d.Comments))
	seen := make(map[int32]struct{}, len(d.Downloads)+len(d.Comments))
	for id := range d.Downloads {
		ids = append(ids, id)
		seen[id] = struct{}{}
	}
	for id := range d.Comments {
		if _, ok := seen[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats is a point-in-time view of the log's counters. Accepted == Merged
// after a full drain (two consecutive rotations with no concurrent
// writes) is the no-lost-acks invariant the CI smoke gate checks; Pending
// is the loss window, the acknowledged writes no rotation has taken yet.
type Stats struct {
	Accepted     int64 `json:"accepted"`
	Merged       int64 `json:"merged"`
	Deduped      int64 `json:"deduped"`
	Duplicates   int64 `json:"duplicates"`
	Backpressure int64 `json:"backpressure"`
	Pending      int64 `json:"pending"`
}

// remembered is what an Idempotency-Key recalls: the natural key of the
// write it first named and whether that write was a duplicate.
type remembered struct {
	key uint64
	dup bool
}

// Log is the store's ingest buffer. Create with New.
type Log struct {
	cfg Config

	mu   sync.Mutex
	open *batch
	// seen holds the natural keys accepted since the log was created
	// (fetch-at-most-once: a user downloads/rates/comments an app once).
	seen map[uint64]struct{}
	// idem maps Idempotency-Key -> remembered verdict, two generations
	// deep: idem is the current epoch, idemPrev the one before, aged at
	// Rotate so a retry straddling a day-roll still finds its verdict.
	idem     map[string]remembered
	idemPrev map[string]remembered
	// downloads, comments and records accumulate the epoch's sealed
	// records: the next Rotate's delta.
	downloads map[int32]int64
	comments  map[int32][]Rec
	records   int

	accepted     *metrics.Counter
	merged       *metrics.Counter
	deduped      *metrics.Counter
	duplicates   *metrics.Counter
	backpressure *metrics.Counter
	pending      *metrics.Gauge     // records awaiting rotation, vs cfg.MaxPending
	batchRecs    *metrics.Histogram // records per sealed batch
	flushSeconds *metrics.Histogram // open->seal latency per batch
}

// batch is one group-commit unit; done closes when it seals.
type batch struct {
	recs   []Rec
	opened time.Time
	done   chan struct{}
	timer  *time.Timer
}

// New builds a log. reg receives the wal_* series: accepted/merged/
// deduped/duplicate/backpressure counters, the pending gauge, and the
// batch-size and flush-latency histograms; nil gives the log a registry
// of its own.
func New(cfg Config, reg *metrics.Registry) *Log {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Log{
		cfg:          cfg.withDefaults(),
		seen:         make(map[uint64]struct{}),
		idem:         make(map[string]remembered),
		downloads:    make(map[int32]int64),
		comments:     make(map[int32][]Rec),
		accepted:     reg.Counter("wal_accepted_total"),
		merged:       reg.Counter("wal_merged_total"),
		deduped:      reg.Counter("wal_deduped_total"),
		duplicates:   reg.Counter("wal_duplicate_total"),
		backpressure: reg.Counter("wal_backpressure_total"),
		pending:      reg.Gauge("wal_pending_records"),
		batchRecs:    reg.Histogram("wal_batch_records"),
		flushSeconds: reg.Histogram("wal_flush_seconds"),
	}
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Accepted:     l.accepted.Value(),
		Merged:       l.merged.Value(),
		Deduped:      l.deduped.Value(),
		Duplicates:   l.duplicates.Value(),
		Backpressure: l.backpressure.Value(),
		Pending:      l.pending.Value(),
	}
}

// Append logs one record and blocks until its group-commit batch seals,
// returning the ack. idemKey (optional, from the Idempotency-Key request
// header) makes retries safe: replaying a key with the same record
// returns the original verdict with Deduped set instead of logging twice,
// and replaying it with a different record is ErrKeyReused. A record
// whose natural key (kind, app, user) was already accepted returns
// Ack{Duplicate: true} without logging. ErrBackpressure reports a full
// buffer.
func (l *Log) Append(rec Rec, idemKey string) (Ack, error) {
	k := rec.key()
	l.mu.Lock()
	if idemKey != "" {
		r, ok := l.idem[idemKey]
		if !ok {
			r, ok = l.idemPrev[idemKey]
		}
		if ok {
			l.mu.Unlock()
			if r.key != k {
				return Ack{}, ErrKeyReused
			}
			l.deduped.Inc()
			return Ack{Duplicate: r.dup, Deduped: true}, nil
		}
	}
	if _, dup := l.seen[k]; dup {
		if idemKey != "" {
			// Remember the rejection under the key too: a retried
			// duplicate submission gets the same 409, not a fresh verdict.
			l.idem[idemKey] = remembered{key: k, dup: true}
		}
		l.mu.Unlock()
		l.duplicates.Inc()
		return Ack{Duplicate: true}, nil
	}
	if l.pending.Value() >= l.cfg.MaxPending {
		l.mu.Unlock()
		l.backpressure.Inc()
		return Ack{}, ErrBackpressure
	}

	b := l.open
	if b == nil {
		b = &batch{opened: time.Now(), done: make(chan struct{})}
		l.open = b
		// The flush timer seals an under-filled batch so a lone write is
		// acked within FlushInterval, not parked until the next arrival.
		b.timer = time.AfterFunc(l.cfg.FlushInterval, func() {
			l.mu.Lock()
			if l.open == b {
				l.sealLocked()
			}
			l.mu.Unlock()
		})
	}
	b.recs = append(b.recs, rec)
	l.seen[k] = struct{}{}
	if idemKey != "" {
		// The record is in a batch that will seal before any Rotate
		// hands it on, so its verdict is final here.
		l.idem[idemKey] = remembered{key: k}
	}
	l.pending.Inc()
	if len(b.recs) >= l.cfg.MaxBatch {
		l.sealLocked()
	}
	l.mu.Unlock()

	<-b.done
	l.accepted.Inc()
	return Ack{}, nil
}

// Rotate seals the open batch and returns the accumulated delta, leaving
// the log empty for the next epoch. Appends blocked in the open batch are
// acked into the returned delta (their writes make this roll); appends
// that arrive after Rotate returns accumulate for the next one.
// Idempotency-key memory is kept for one extra epoch so a client retry
// that straddles the roll still dedups, then forgotten.
//
// The caller (the store's day-roll, holding its own writer lock) applies
// the delta; comment lists come out canonically sorted and apps should be
// applied in Apps() order so the merged state is order-independent.
func (l *Log) Rotate() *Delta {
	l.mu.Lock()
	l.sealLocked()
	d := &Delta{Downloads: l.downloads, Comments: l.comments, Records: l.records}
	l.downloads, l.comments, l.records = make(map[int32]int64), make(map[int32][]Rec), 0
	l.idemPrev, l.idem = l.idem, make(map[string]remembered)
	l.mu.Unlock()
	for _, recs := range d.Comments {
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].User != recs[j].User {
				return recs[i].User < recs[j].User
			}
			if recs[i].Kind != recs[j].Kind {
				return recs[i].Kind < recs[j].Kind
			}
			return recs[i].Rating < recs[j].Rating
		})
	}
	l.pending.Add(-int64(d.Records))
	l.merged.Add(int64(d.Records))
	return d
}

// sealLocked commits the open batch: folds its records into the epoch's
// delta and wakes the waiting appenders. Callers hold l.mu.
func (l *Log) sealLocked() {
	b := l.open
	if b == nil {
		return
	}
	l.open = nil
	b.timer.Stop()
	for _, rec := range b.recs {
		switch rec.Kind {
		case Download:
			l.downloads[rec.App]++
		default:
			l.comments[rec.App] = append(l.comments[rec.App], rec)
		}
	}
	l.records += len(b.recs)
	l.batchRecs.Observe(int64(len(b.recs)))
	l.flushSeconds.ObserveSince(b.opened)
	close(b.done)
}

// Package session simulates stateful store users driving the write path:
// N users each run a preference-driven browse→detail→install→rate→comment
// funnel against the /api/v1 surface, the behavioral loop the paper's
// ecosystem observes from the outside (and the usage-mining literature —
// "Mining Behavioral Patterns from Millions of Android Users" — records
// from the inside). App choice follows the APP-CLUSTERING model from
// internal/model: each user belongs to one interest cluster and draws
// apps from a within-cluster Zipf with probability ClusterP, from the
// global Zipf otherwise, fetch-at-most-once per (user, app).
//
// The package splits planning from execution on purpose. A Plan is
// generated single-threaded from a seed — every random decision is made
// there — and a Runner executes it with any number of workers, issuing
// writes with deterministic Idempotency-Keys. Since the store's WAL
// deltas are order-independent, the same Plan produces a byte-identical
// next-day snapshot at 1 worker and at 8; the replay-determinism test
// pins exactly that.
package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"planetapps/internal/apiwire"
	"planetapps/internal/dist"
	"planetapps/internal/model"
	"planetapps/internal/resilient"
	"planetapps/internal/rng"
)

// Config sizes a session plan.
type Config struct {
	// Users is the simulated user population.
	Users int
	// Apps is the catalog size the users browse (app IDs 0..Apps-1).
	Apps int
	// Clusters is the interest-cluster count for the APP-CLUSTERING
	// affinity (<= 1 disables clustering: all draws are global).
	Clusters int
	// ClusterP is the probability a visit draws from the user's home
	// cluster instead of the global ranking (paper Eq. 5 regime).
	ClusterP float64
	// ZipfS is the popularity skew of both the global and within-cluster
	// rankings (<= 0 uses 0.9, the paper's fitted neighborhood).
	ZipfS float64
	// VisitsPerUser is the mean visits (detail-page views) per user; the
	// actual count is Poisson-drawn per user (0 uses 4).
	VisitsPerUser float64
	// InstallP is the probability a visited app is installed (the
	// browse→install conversion). RateP and CommentP are conditional on
	// install: an installed app is rated with RateP and commented on with
	// CommentP. Ratings skew high, as store ratings do.
	InstallP, RateP, CommentP float64
	// Seed drives every draw; equal seeds mean equal plans.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.ZipfS <= 0 {
		c.ZipfS = 0.9
	}
	if c.VisitsPerUser <= 0 {
		c.VisitsPerUser = 4
	}
	return c
}

// Visit is one planned funnel step: a detail-page view, optionally
// followed by an install (POST download), a rating (POST rate), and a
// comment (POST comments).
type Visit struct {
	App     int32
	Install bool
	// Rating is 1..5 when the user rates the installed app, 0 otherwise.
	Rating int8
	// Comment reports a comment; CommentRating is its attached rating
	// (0 = none, matching the generated comment streams).
	Comment       bool
	CommentRating int8
}

// UserPlan is one user's ordered funnel.
type UserPlan struct {
	User   int32
	Visits []Visit
}

// Plan is a fully materialized session schedule: every random decision
// already made, so execution is deterministic no matter how it is
// parallelized.
type Plan struct {
	Users []UserPlan
	// Planned totals, for sizing expectations and test assertions.
	Visits, Installs, Ratings, Comments int
}

// ratingWeights is the J-shaped rating histogram app stores exhibit:
// most ratings are 5s, with a small spike of 1s — the shape the paper's
// comment analysis reports.
var ratingWeights = []float64{0.10, 0.05, 0.10, 0.20, 0.55} // ratings 1..5

// NewPlan materializes a session schedule from cfg. Planning is
// single-threaded and consumes the seed in a fixed order (one RNG split
// per user), so equal configs yield equal plans.
func NewPlan(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	p := &Plan{}
	if cfg.Users <= 0 || cfg.Apps <= 0 {
		return p
	}
	root := rng.New(cfg.Seed)
	global := dist.MustZipf(cfg.Apps, cfg.ZipfS)
	ratings := dist.MustCategorical(ratingWeights)

	var cm *model.ClusterMap
	var clusterZipf []*dist.Zipf
	if cfg.Clusters > 1 && cfg.ClusterP > 0 {
		cm = model.RoundRobin(cfg.Apps, cfg.Clusters)
		clusterZipf = make([]*dist.Zipf, len(cm.Members))
		for c, members := range cm.Members {
			clusterZipf[c] = dist.MustZipf(len(members), cfg.ZipfS)
		}
	}

	p.Users = make([]UserPlan, 0, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		r := root.Split(uint64(u))
		home := 0
		if cm != nil {
			home = int(r.Uint64n(uint64(len(cm.Members))))
		}
		want := r.Poisson(cfg.VisitsPerUser)
		up := UserPlan{User: int32(u), Visits: make([]Visit, 0, want)}
		seen := make(map[int32]struct{}, want)
		// Fetch-at-most-once: a redrawn app is skipped, not revisited; the
		// attempt budget keeps a tiny catalog from spinning forever.
		for attempts := 0; len(up.Visits) < want && attempts < want*4+16; attempts++ {
			var app int32
			// Zipf ranks are 1-based; rank 1 is the cluster's (or catalog's)
			// most popular app.
			if cm != nil && r.Bool(cfg.ClusterP) {
				app = cm.Members[home][clusterZipf[home].Sample(r)-1]
			} else {
				app = int32(global.Sample(r) - 1)
			}
			if _, dup := seen[app]; dup {
				continue
			}
			seen[app] = struct{}{}
			v := Visit{App: app, Install: r.Bool(cfg.InstallP)}
			if v.Install {
				if r.Bool(cfg.RateP) {
					v.Rating = int8(1 + ratings.Sample(r))
				}
				if r.Bool(cfg.CommentP) {
					v.Comment = true
					v.CommentRating = v.Rating // 0 when unrated, as generated streams allow
				}
			}
			up.Visits = append(up.Visits, v)
			p.Visits++
			if v.Install {
				p.Installs++
			}
			if v.Rating > 0 {
				p.Ratings++
			}
			if v.Comment {
				p.Comments++
			}
		}
		p.Users = append(p.Users, up)
	}
	return p
}

// IdemKey renders the deterministic Idempotency-Key for one (user, app,
// endpoint) write — stable across retries, workers, and runs, which is
// what lets a replayed plan dedup instead of double-count.
func IdemKey(user, app int32, endpoint string) string {
	return "u" + strconv.FormatInt(int64(user), 10) +
		"-a" + strconv.FormatInt(int64(app), 10) + "-" + endpoint
}

// Doer is the client surface the runner needs. PlainClient wraps a bare
// *http.Client; ResilientClient wraps the hardened stack.
type Doer interface {
	Get(ctx context.Context, url string, hdr http.Header, validate func(status int, body []byte) error) error
	Post(ctx context.Context, url string, hdr http.Header, body []byte) (status int, respBody []byte, err error)
}

// Stats counts one Run's outcomes. Accepted counts 200-acked writes that
// were logged fresh; Deduped counts idempotency replays; Duplicates
// counts 409s (the natural key was already taken — e.g. the plan replayed
// against a store that already absorbed it).
type Stats struct {
	Visits     int64 `json:"visits"`
	Installs   int64 `json:"installs"`
	Ratings    int64 `json:"ratings"`
	Comments   int64 `json:"comments"`
	Accepted   int64 `json:"accepted"`
	Deduped    int64 `json:"deduped"`
	Duplicates int64 `json:"duplicates"`
	Errors     int64 `json:"errors"`
}

// Runner executes a Plan against a store's /api/v1 surface.
type Runner struct {
	// BaseURL roots the store ("http://host:port", no trailing slash).
	BaseURL string
	// Client issues the requests; nil uses http.DefaultClient semantics
	// via a plain adapter.
	Client Doer
	// Workers is the execution parallelism (<= 0 uses 1). Work splits by
	// user, so one user's funnel always runs in order.
	Workers int
}

// ackJSON is the slice of the store's write ack the runner inspects.
type ackJSON struct {
	Accepted bool `json:"accepted"`
	Deduped  bool `json:"deduped"`
}

// Run executes the plan: per visit, a detail GET (the browse step),
// then the planned POSTs. Write failures are counted, not fatal — a
// session fleet, like real users, shrugs and moves on. The returned
// error is only a context cancellation.
func (r *Runner) Run(ctx context.Context, p *Plan) (Stats, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = 1
	}
	client := r.Client
	if client == nil {
		client = PlainClient{HTTP: http.DefaultClient}
	}
	var st Stats
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.Users) || ctx.Err() != nil {
					return
				}
				r.runUser(ctx, client, &p.Users[i], &st)
			}
		}()
	}
	wg.Wait()
	return st, ctx.Err()
}

func (r *Runner) runUser(ctx context.Context, client Doer, up *UserPlan, st *Stats) {
	for _, v := range up.Visits {
		if ctx.Err() != nil {
			return
		}
		if err := client.Get(ctx, r.BaseURL+apiwire.AppPath(apiwire.Detail, v.App), nil, nil); err != nil {
			atomic.AddInt64(&st.Errors, 1)
			continue // no detail page, no funnel
		}
		atomic.AddInt64(&st.Visits, 1)
		if !v.Install {
			continue
		}
		if r.post(ctx, client, st, up.User, v.App, apiwire.Download, 0) {
			atomic.AddInt64(&st.Installs, 1)
		}
		if v.Rating > 0 && r.post(ctx, client, st, up.User, v.App, apiwire.Rate, v.Rating) {
			atomic.AddInt64(&st.Ratings, 1)
		}
		if v.Comment && r.post(ctx, client, st, up.User, v.App, apiwire.Comments, v.CommentRating) {
			atomic.AddInt64(&st.Comments, 1)
		}
	}
}

// post issues one mutation; reports whether the store acknowledged it
// (fresh or deduped — the write is durably in the day's delta either way).
func (r *Runner) post(ctx context.Context, client Doer, st *Stats, user, app int32, endpoint apiwire.Kind, rating int8) bool {
	var body []byte
	if endpoint == apiwire.Rate || (endpoint == apiwire.Comments && rating > 0) {
		body = []byte(`{"user":` + strconv.FormatInt(int64(user), 10) +
			`,"rating":` + strconv.FormatInt(int64(rating), 10) + `}`)
	} else {
		body = []byte(`{"user":` + strconv.FormatInt(int64(user), 10) + `}`)
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Idempotency-Key", IdemKey(user, app, endpoint.String()))
	status, respBody, err := client.Post(ctx, r.BaseURL+apiwire.AppPath(endpoint, app), hdr, body)
	if err != nil && status == 0 {
		atomic.AddInt64(&st.Errors, 1)
		return false
	}
	switch status {
	case http.StatusOK:
		var ack ackJSON
		if json.Unmarshal(respBody, &ack) == nil && ack.Deduped {
			atomic.AddInt64(&st.Deduped, 1)
		} else {
			atomic.AddInt64(&st.Accepted, 1)
		}
		return true
	case http.StatusConflict:
		atomic.AddInt64(&st.Duplicates, 1)
		return false
	default:
		atomic.AddInt64(&st.Errors, 1)
		return false
	}
}

// PlainClient adapts a bare *http.Client to the Doer surface — no
// retries, no breaker; tests and simple tools use it directly.
type PlainClient struct {
	HTTP *http.Client
}

func (c PlainClient) Get(ctx context.Context, url string, hdr http.Header, validate func(int, []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return fmt.Errorf("session: GET %s: status %d", url, resp.StatusCode)
	}
	if validate != nil {
		return validate(resp.StatusCode, buf.Bytes())
	}
	return nil
}

func (c PlainClient) Post(ctx context.Context, url string, hdr http.Header, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// ResilientClient adapts *resilient.Client to the Doer surface: funnels
// ride the full retry/breaker/hedging stack, with write retries kept safe
// by the runner's deterministic Idempotency-Keys.
type ResilientClient struct {
	C *resilient.Client
}

func (c ResilientClient) Get(ctx context.Context, url string, hdr http.Header, validate func(int, []byte) error) error {
	res, err := c.C.Get(ctx, url, hdr, nil)
	if err != nil {
		return err
	}
	if validate != nil {
		return validate(res.Status, res.Body)
	}
	return nil
}

func (c ResilientClient) Post(ctx context.Context, url string, hdr http.Header, body []byte) (int, []byte, error) {
	res, err := c.C.Post(ctx, url, hdr, body, nil)
	if res != nil {
		// Definitive HTTP answers (the 409 duplicate verdict, a final 429)
		// surface as statuses; the caller classifies them.
		return res.Status, res.Body, nil
	}
	return 0, nil, err
}

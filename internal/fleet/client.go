package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"planetapps/internal/metrics"
)

// ShardClient is the gateway's handle on one fleet member. Base is the
// shard's URL root ("http://host:port", no trailing slash); HTTP carries
// the transport — a real network client for gatewayd, a HandlerTransport
// for the in-process fleet. Reg is read by nothing: the gateway's merged
// /metrics fetches every shard's page through HTTP. The field stays only
// because the frozen cmd/bench sets it (ROADMAP item 2(d)'s unfreeze list).
type ShardClient struct {
	Name string
	Base string
	HTTP *http.Client
	Reg  *metrics.Registry
}

// get issues a GET and returns the response; the caller closes the body.
func (c *ShardClient) get(ctx context.Context, pathAndQuery string, hdr http.Header) (*http.Response, error) {
	return c.do(ctx, http.MethodGet, pathAndQuery, hdr, nil)
}

// do issues one proxied request with the caller's method and body — the
// write path's POSTs ride through here with their Idempotency-Key, so a
// gateway retry story stays the shard's retry story. The caller closes
// the response body.
func (c *ShardClient) do(ctx context.Context, method, pathAndQuery string, hdr http.Header, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+pathAndQuery, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	return c.HTTP.Do(req)
}

// admin issues one control-plane call and decodes the uniform {day} body.
func (c *ShardClient) admin(ctx context.Context, method, pathAndQuery string) (adminDay, error) {
	resp, err := c.do(ctx, method, pathAndQuery, nil, nil)
	if err != nil {
		return adminDay{}, err
	}
	defer resp.Body.Close()
	var body adminDay
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err != nil {
		return adminDay{}, fmt.Errorf("shard %s: %s: bad admin body: %w", c.Name, pathAndQuery, err)
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("shard %s: %s: status %d (%s)", c.Name, pathAndQuery, resp.StatusCode, body.Error)
	}
	return body, nil
}

// AdvanceFleet rolls every shard to the next day as one two-phase epoch
// swap. Phase 1 (prepare) has every shard step its market and build the
// next snapshot while still serving the old day — the expensive part, done
// everywhere before anything becomes visible. Phase 2 (commit) flips each
// shard's atomic snapshot pointer, so the cross-shard disagreement window
// is the commit fan-out (microseconds in process, network RTTs across
// one), not the build time; the gateway's per-request epoch check covers
// what remains. Both phases are idempotent on the shard side, so a failed
// AdvanceFleet can simply be called again: shards that already prepared
// return the same pending day, shards that already committed acknowledge
// it, and a shard that lost its pending state rebuilds it during commit.
//
// A diverged fleet — some shard serving a later day than the rest, from
// an out-of-band roll or a crash between phases — prepares unequal days.
// AdvanceFleet converges it instead of wedging: each lagging shard is
// committed at its own prepared day and re-prepared, one day per round,
// until the whole fleet's pending day is the maximum, then that day
// commits everywhere. A coherent fleet never enters the loop.
func AdvanceFleet(ctx context.Context, shards []ShardClient) (int, error) {
	days, err := fanoutAdmin(ctx, shards, http.MethodPost, "/admin/prepare")
	if err != nil {
		return 0, fmt.Errorf("fleet prepare: %w", err)
	}
	target := days[0]
	for _, d := range days {
		if d > target {
			target = d
		}
	}
	for {
		behind := false
		for i, d := range days {
			if d >= target {
				continue
			}
			behind = true
			if _, err := shards[i].admin(ctx, http.MethodPost, "/admin/commit?day="+strconv.Itoa(d)); err != nil {
				return 0, fmt.Errorf("fleet converge: shard %s commit day %d: %w", shards[i].Name, d, err)
			}
			body, err := shards[i].admin(ctx, http.MethodPost, "/admin/prepare")
			if err != nil {
				return 0, fmt.Errorf("fleet converge: shard %s re-prepare: %w", shards[i].Name, err)
			}
			if body.Day <= d {
				return 0, fmt.Errorf("fleet converge: shard %s re-prepared day %d after committing day %d",
					shards[i].Name, body.Day, d)
			}
			days[i] = body.Day
		}
		if !behind {
			break
		}
	}
	if _, err := fanoutAdmin(ctx, shards, http.MethodPost, "/admin/commit?day="+strconv.Itoa(target)); err != nil {
		return 0, fmt.Errorf("fleet commit day %d: %w", target, err)
	}
	return target, nil
}

// fanoutAdmin sends one admin call to every shard concurrently and
// collects the reported days, failing on the first shard error by shard
// order.
func fanoutAdmin(ctx context.Context, shards []ShardClient, method, pathAndQuery string) ([]int, error) {
	days := make([]int, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := shards[i].admin(ctx, method, pathAndQuery)
			days[i], errs[i] = body.Day, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return days, nil
}

// FleetDay asks every shard for its serving day; coherent reports the
// fleet agreeing on one epoch.
func FleetDay(ctx context.Context, shards []ShardClient) (day int, coherent bool, err error) {
	days, err := fanoutAdmin(ctx, shards, http.MethodGet, "/admin/day")
	if err != nil {
		return 0, false, err
	}
	day, coherent = days[0], true
	for _, d := range days {
		if d != day {
			coherent = false
		}
		if d > day {
			day = d
		}
	}
	return day, coherent, nil
}

package faultinject

import (
	"fmt"
	"sort"
	"time"

	"planetapps/internal/apiwire"
)

// Built-in scenarios, each modeling one hostility the paper's crawlers
// met in the wild. Magnitudes are tuned for in-process test stores (tens
// of milliseconds); a deployment against a real network scales them with
// Scenario.Scale.
//
// Phase windows are expressed on arrival counters (Every/Span), never on
// wall time: every attempt — including a client's retries — advances the
// counter, so a burst always drains no matter how slowly the client limps
// through it, and a run is reproducible from the seed alone.
var builtins = []Scenario{
	{
		Name: "latency",
		Desc: "tail-latency spikes on the metadata routes: ~25% of requests stall 60-140ms",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindLatency, Prob: 0.25, Delay: 60 * time.Millisecond, Jitter: 80 * time.Millisecond, Node: -1},
		},
	},
	{
		Name: "error-burst",
		Desc: "recurring 5xx storms: inside every 160-request window, the first 48 fail with 503/500 at p=0.9",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindError, Prob: 0.9, Every: 160, Span: 48, Status: 503, RetryAfter: 40 * time.Millisecond, Node: -1},
			{Route: apiwire.Prefix, Kind: KindError, Prob: 0.08, Status: 500, Node: -1},
		},
	},
	{
		Name: "resets",
		Desc: "abrupt connection resets on ~12% of requests, the blacklisting store's RST",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindReset, Prob: 0.12, Node: -1},
		},
	},
	{
		Name: "corruption",
		Desc: "damaged payloads: ~10% of bodies get a zeroed span, ~6% are truncated mid-body",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindCorrupt, Prob: 0.10, Node: -1},
			{Route: apiwire.Prefix, Kind: KindTruncate, Prob: 0.06, TruncateAt: 16, Node: -1},
		},
	},
	{
		Name: "rate-limit-storm",
		Desc: "429 storms: inside every 120-request window the first 40 are rejected with Retry-After",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindRateLimit, Prob: 1, Every: 120, Span: 40, RetryAfter: 25 * time.Millisecond, Node: -1},
		},
	},
	{
		Name: "slow-loris",
		Desc: "~8% of responses dribble out in 64-byte flushed chunks, 2ms apart",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindSlowLoris, Prob: 0.08, Delay: 2 * time.Millisecond, Node: -1},
		},
	},
	{
		Name: "shard-kill",
		Desc: "store-fleet shard outage: shard 0 is dead (every request reset) for the first 24 requests of each 160-request window, and every shard resets ~4% of requests besides",
		Rules: []Rule{
			{Route: apiwire.Prefix, Kind: KindReset, Prob: 1, Every: 160, Span: 24, Node: 0},
			{Route: apiwire.Prefix, Kind: KindReset, Prob: 0.04, Node: -1},
		},
	},
	{
		Name: "proxy-partition",
		Desc: "fleet partition: node 0 of every fleet is dead (all requests reset), node 1 drops half",
		Rules: []Rule{
			{Kind: KindReset, Prob: 1, Node: 0},
			{Kind: KindReset, Prob: 0.5, Node: 1},
		},
	},
}

// Lookup returns the built-in scenario with the given name.
func Lookup(name string) (Scenario, error) {
	for _, sc := range builtins {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("faultinject: unknown scenario %q (have %v)", name, Names())
}

// Parse reads a -chaos flag: the named built-in scenario with its
// durations scaled by f, or nil for the empty name.
func Parse(name string, f float64) (*Scenario, error) {
	if name == "" {
		return nil, nil
	}
	sc, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	sc = sc.Scale(f)
	return &sc, nil
}

// Names lists the built-in scenario names, sorted.
func Names() []string {
	out := make([]string, len(builtins))
	for i, sc := range builtins {
		out[i] = sc.Name
	}
	sort.Strings(out)
	return out
}

// Scale returns a copy of sc with every duration multiplied by f —
// shrink a scenario for fast tests or stretch it toward real-network
// magnitudes without redefining the rules.
func (sc Scenario) Scale(f float64) Scenario {
	rules := make([]Rule, len(sc.Rules))
	copy(rules, sc.Rules)
	for i := range rules {
		rules[i].Delay = time.Duration(float64(rules[i].Delay) * f)
		rules[i].Jitter = time.Duration(float64(rules[i].Jitter) * f)
		rules[i].RetryAfter = time.Duration(float64(rules[i].RetryAfter) * f)
	}
	sc.Rules = rules
	return sc
}

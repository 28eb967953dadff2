package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/faultinject"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// Options describes a fleet and the store every member of it serves. A
// single node is a fleet of one.
type Options struct {
	// Shards is the fleet size (>= 1).
	Shards int
	// Store / Scale / Seed / Days configure each shard's market. Every
	// shard runs the SAME simulation — same profile, same seed — and
	// serves the disjoint slice of it the ring assigns; determinism of the
	// market (pinned since PR 3) is what lets N nodes agree on the whole
	// catalog without ever talking to each other. Days 0 keeps the
	// profile's default period.
	Store string
	Scale float64
	Seed  uint64
	Days  int
	// CommentUsers sizes the generated comment population (0 = none).
	CommentUsers int
	// Vnodes overrides the ring's virtual-node count (0 = default).
	Vnodes int
	// Server is the per-shard base config; Node and Partition are
	// overwritten per shard.
	Server storeserver.Config
	// Chaos, when non-nil, arms the scenario on every shard. In a fleet of
	// several the injectors are node-indexed — rules carrying Node target
	// that shard only, Node -1 rules fire fleet-wide, and each shard draws
	// its own decision stream; a fleet of one gets the un-indexed injector,
	// so one scenario and seed replay one fault sequence on a single node
	// however it was started.
	Chaos     *faultinject.Scenario
	ChaosSeed uint64
}

// NewShard assembles member k of the fleet opts describes — the one place
// a serving store is put together: profile, scaled market, store server
// over the ring partition k owns, comment streams, chaos. appstored calls
// it once; NewInproc calls it for every k.
func NewShard(opts Options, k int) (*storeserver.Server, error) {
	return newShard(opts, k, new([]comments.Comment))
}

// generateComments is comments.Generate, a variable so that a test can
// count the populations a fleet generates.
var generateComments = comments.Generate

// newShard is NewShard given where the fleet's comment population is kept:
// the first member to need it generates it there, the rest attach it.
func newShard(opts Options, k int, population *[]comments.Comment) (*storeserver.Server, error) {
	if k < 0 || k >= opts.Shards {
		return nil, fmt.Errorf("fleet: shard %d outside a fleet of %d", k, opts.Shards)
	}
	prof, ok := catalog.Profiles[opts.Store]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown store %q (have %v)", opts.Store, catalog.ProfileNames())
	}
	cfg := marketsim.DefaultConfig(prof.Scale(opts.Scale))
	if opts.Days > 0 {
		cfg.Days = opts.Days
	}
	// A serving store reads cumulative counts only; nothing asks for the
	// per-day series, and N shards would each accumulate a copy of it.
	cfg.DisableSeries = true
	m, err := marketsim.New(cfg, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d market: %w", k, err)
	}
	scfg := opts.Server
	scfg.Node = shardName(k)
	node := -1
	if opts.Shards > 1 {
		scfg.Partition = marketsim.NewPartitioner(NewRing(opts.Shards, opts.Vnodes).OwnsFunc(k))
		node = k
	}
	srv := storeserver.New(m, scfg)
	if opts.CommentUsers > 0 {
		// The full comment population is a pure function of the day-0
		// catalog every member shares and of the seed, so whichever member
		// generated it, SetComments keeps the streams of the apps this shard
		// owns and serves the documents a single node would for them.
		if *population == nil {
			cs, err := generateComments(m.Catalog(), comments.DefaultGenConfig(opts.CommentUsers), opts.Seed+1)
			if err != nil {
				return nil, fmt.Errorf("fleet: shard %d comments: %w", k, err)
			}
			*population = cs
		}
		srv.SetComments(*population)
	}
	if opts.Chaos != nil {
		// The injector shares the server's registry so injected-fault
		// counters ride the same /metrics page as the serving telemetry.
		srv.SetChaos(faultinject.NewForNode(*opts.Chaos, opts.ChaosSeed, node, srv.Registry()))
	}
	return srv, nil
}

// shardName is member k's node name: its label on every metric series it
// exposes and its ShardClient's name.
func shardName(k int) string { return "shard-" + strconv.Itoa(k) }

// Inproc is a whole fleet in one process: N store servers behind a
// gateway, wired with in-memory transports. It serves tests, loadtest and
// crawl without opening a socket.
type Inproc struct {
	Servers []*storeserver.Server
	Gateway *Gateway
	nodes   []*ShardNode
	shards  []ShardClient
}

// NewInproc builds the fleet.
func NewInproc(opts Options) (*Inproc, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, got %d", opts.Shards)
	}
	ip := &Inproc{}
	var population []comments.Comment // generated once, by shard 0
	for k := 0; k < opts.Shards; k++ {
		srv, err := newShard(opts, k, &population)
		if err != nil {
			return nil, err
		}
		node := NewShardNode(srv)
		name := shardName(k)
		ip.Servers = append(ip.Servers, srv)
		ip.nodes = append(ip.nodes, node)
		ip.shards = append(ip.shards, ShardClient{
			Name: name,
			Base: "http://" + name,
			HTTP: &http.Client{Transport: HandlerTransport{Handler: node}},
		})
	}
	ip.Gateway = NewGateway(Config{
		Shards:   ip.shards,
		PageSize: opts.Server.PageSize,
		Vnodes:   opts.Vnodes,
	})
	return ip, nil
}

// Handler returns the gateway's HTTP handler.
func (ip *Inproc) Handler() http.Handler { return ip.Gateway }

// Front returns the handler clients should be pointed at: the gateway —
// or, in a fleet of one, the node itself: one shard leaves nothing to
// route or merge, so the hop is skipped and the client talks to what is
// byte for byte a single store (TestFleetOfOneIsTheSingleNode).
func (ip *Inproc) Front() http.Handler {
	if len(ip.nodes) == 1 {
		return ip.nodes[0]
	}
	return ip.Gateway
}

// Shards returns the fleet's shard clients (admin and scrape access).
func (ip *Inproc) Shards() []ShardClient { return ip.shards }

// AdvanceDay rolls the whole fleet one day via the two-phase epoch swap.
func (ip *Inproc) AdvanceDay() error {
	_, err := AdvanceFleet(context.Background(), ip.shards)
	return err
}

// Day returns the fleet's serving day (shard 0's; after AdvanceDay they
// all agree).
func (ip *Inproc) Day() int { return ip.Servers[0].Day() }

// NumApps returns the size of the whole catalog: the shards' partitions
// are disjoint and cover it.
func (ip *Inproc) NumApps() int {
	n := 0
	for _, s := range ip.Servers {
		n += s.NumApps()
	}
	return n
}

// FaultsInjected returns the faults Options.Chaos has injected so far,
// summed over the shards.
func (ip *Inproc) FaultsInjected() int64 {
	var n int64
	for _, s := range ip.Servers {
		n += s.FaultsInjected()
	}
	return n
}

package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"planetapps"
	"planetapps/internal/faultinject"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// InprocOptions configures an in-process fleet.
type InprocOptions struct {
	// Shards is the fleet size (>= 1).
	Shards int
	// Store / Scale / Seed / Days configure each shard's market. Every
	// shard runs the SAME simulation — same profile, same seed — and
	// serves the disjoint slice of it the ring assigns; determinism of the
	// market (pinned since PR 3) is what lets N nodes agree on the whole
	// catalog without ever talking to each other.
	Store string
	Scale float64
	Seed  uint64
	Days  int
	// CommentUsers sizes the generated comment population (0 = none).
	CommentUsers int
	// Vnodes overrides the ring's virtual-node count (0 = default).
	Vnodes int
	// Server is the per-shard base config; Node and Partition are
	// overwritten per shard, PageSize defaults to 100.
	Server storeserver.Config
	// Chaos, when non-nil, arms the scenario on every shard via a
	// node-indexed injector — rules carrying Node target that shard only,
	// Node -1 rules fire fleet-wide.
	Chaos      *faultinject.Scenario
	ChaosSeed  uint64
	ChaosScale float64
}

// Inproc is a whole fleet in one process: N partitioned store servers
// behind a gateway, wired with in-memory transports. It serves tests,
// loadtest -shards N, and the scaling benchmark without opening a socket.
type Inproc struct {
	Servers []*storeserver.Server
	Nodes   []*ShardNode
	Gateway *Gateway
	shards  []ShardClient
	numApps int
}

// NewInproc builds the fleet.
func NewInproc(opts InprocOptions) (*Inproc, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, got %d", opts.Shards)
	}
	if opts.Server.PageSize <= 0 {
		opts.Server.PageSize = 100
	}
	prof, err := planetapps.StoreProfile(opts.Store)
	if err != nil {
		return nil, err
	}
	prof = prof.Scale(opts.Scale)
	ring := NewRing(opts.Shards, opts.Vnodes)

	ip := &Inproc{}
	for k := 0; k < opts.Shards; k++ {
		cfg := planetapps.DefaultMarketConfig(prof)
		if opts.Days > 0 {
			cfg.Days = opts.Days
		}
		m, err := marketsim.New(cfg, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d market: %w", k, err)
		}
		scfg := opts.Server
		scfg.Node = "shard-" + strconv.Itoa(k)
		if opts.Shards > 1 {
			scfg.Partition = marketsim.NewPartitioner(ring.OwnsFunc(k))
		}
		srv := storeserver.New(m, scfg)
		if opts.CommentUsers > 0 {
			// Every shard generates the full comment population (it is a
			// pure function of the shared catalog and seed); SetComments
			// keeps the streams of the apps the shard owns, and it serves
			// the same documents for them a single node would.
			cs, err := planetapps.GenerateComments(m.Catalog(), opts.CommentUsers, opts.Seed+1)
			if err != nil {
				return nil, fmt.Errorf("fleet: shard %d comments: %w", k, err)
			}
			srv.SetComments(cs)
		}
		if opts.Chaos != nil {
			sc := *opts.Chaos
			if opts.ChaosScale > 0 {
				sc = sc.Scale(opts.ChaosScale)
			}
			srv.SetChaos(faultinject.NewForNode(sc, opts.ChaosSeed, k, srv.Registry()))
		}
		node := NewShardNode(srv)
		ip.numApps = m.Catalog().NumApps()
		ip.Servers = append(ip.Servers, srv)
		ip.Nodes = append(ip.Nodes, node)
		ip.shards = append(ip.shards, ShardClient{
			Name: scfg.Node,
			Base: "http://" + scfg.Node,
			HTTP: &http.Client{Transport: HandlerTransport{Handler: node}},
			Reg:  srv.Registry(),
		})
	}
	ip.Gateway = NewGateway(Config{
		Shards:   ip.shards,
		PageSize: opts.Server.PageSize,
		Vnodes:   opts.Vnodes,
	})
	return ip, nil
}

// Handler returns the gateway's HTTP handler — the fleet's front door.
func (ip *Inproc) Handler() http.Handler { return ip.Gateway }

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

// NumApps returns the shared catalog's app count (the whole catalog, not
// one shard's partition).
func (ip *Inproc) NumApps() int { return ip.numApps }

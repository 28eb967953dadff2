package fleet

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"planetapps/internal/edgecache"
	"planetapps/internal/faultinject"
)

// stackOptions is a small store for NewStack's tests: testStore without
// comments, a fleet of one unless the test asks for more.
func stackOptions() Options {
	return Options{Store: testStore, Scale: testScale, Seed: testSeed, Days: testDays}
}

func lookup(t *testing.T, name string) *faultinject.Scenario {
	t.Helper()
	sc, err := faultinject.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return &sc
}

// TestNodeScopedChaosNeedsProxyNodes: a scenario whose every rule names a
// node describes a proxy partition. Without proxy nodes it used to inject
// nothing on a crawl (kept off the store, nowhere else to go) and, on
// loadtest's fleet of one, to fire every node rule on the single node,
// failing every request. NewStack refuses it at any fleet size, naming the
// scenario; with proxy nodes it arms them and leaves the shards alone.
func TestNodeScopedChaosNeedsProxyNodes(t *testing.T) {
	for _, shards := range []int{0, 1, 3} {
		opts := stackOptions()
		opts.Shards, opts.Chaos = shards, lookup(t, "proxy-partition")
		st, err := NewStack(opts, StackOptions{})
		if err == nil {
			st.Close()
			t.Fatalf("%d shards, no proxy nodes: proxy-partition was armed", shards)
		}
		if !strings.Contains(err.Error(), `"proxy-partition"`) {
			t.Fatalf("%d shards, no proxy nodes: the error does not name the scenario: %v", shards, err)
		}
	}

	opts := stackOptions()
	opts.Chaos = lookup(t, "proxy-partition")
	st, err := NewStack(opts, StackOptions{Proxies: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.ProxyURLs) != 3 {
		t.Fatalf("%d proxy URLs, want 3", len(st.ProxyURLs))
	}
	// Node 0 of the partition resets every request; node 2 has no rule.
	status := func(node int) (int, error) {
		pu, err := url.Parse(st.ProxyURLs[node])
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(pu)}}
		resp, err := client.Get(st.URL + "/api/v1/stats")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	if code, err := status(0); err == nil {
		t.Fatalf("through the dead proxy node: status %d", code)
	}
	if code, err := status(2); err != nil || code != http.StatusOK {
		t.Fatalf("through a healthy proxy node: %d, %v", code, err)
	}
	if len(st.ProxyChaos) != 3 || st.ProxyChaos[0].InjectedTotal() == 0 || st.ProxyChaos[2].InjectedTotal() != 0 {
		t.Fatal("the proxy partition did not fault node 0 alone")
	}
	if n := st.Inproc.FaultsInjected(); n != 0 {
		t.Fatalf("the store injected %d faults of a proxy partition", n)
	}
}

// TestNewStackRefusesWhatItCannotBuild: settings that name a leg the stack
// does not have are refused before anything is served.
func TestNewStackRefusesWhatItCannotBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Options, *StackOptions)
	}{
		{"shards of an external origin", func(o *Options, so *StackOptions) { so.Origin, o.Shards = "http://127.0.0.1:1", 2 }},
		{"store chaos on an external origin", func(o *Options, so *StackOptions) {
			so.Origin, o.Chaos = "http://127.0.0.1:1", lookup(t, "error-burst")
		}},
		{"edge chaos without an edge", func(_ *Options, so *StackOptions) { so.EdgeChaos = lookup(t, "error-burst") }},
	} {
		opts, so := stackOptions(), StackOptions{}
		tc.edit(&opts, &so)
		if st, err := NewStack(opts, so); err == nil {
			st.Close()
			t.Errorf("%s: built", tc.name)
		}
	}
}

// TestStackLegs: the client-facing URL is the edge's when there is one,
// and the edge reaches the fleet; chaos on the edge->origin leg counts
// there and nowhere else; AdvanceDay rolls the fleet; an external origin is
// passed through as the client URL.
func TestStackLegs(t *testing.T) {
	opts := stackOptions()
	opts.Shards = 2
	st, err := NewStack(opts, StackOptions{Edge: &edgecache.Config{}, EdgeChaos: lookup(t, "error-burst")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Edge == nil || st.Inproc == nil || len(st.Inproc.Servers) != 2 {
		t.Fatalf("stack: edge %v, fleet %v", st.Edge, st.Inproc)
	}
	for i := 0; i < 40; i++ {
		resp, err := http.Get(st.URL + "/api/v1/apps/" + strconv.Itoa(i%10))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		resp.Body.Close()
	}
	if st.Edge.Stats().Requests == 0 {
		t.Fatal("the client URL is not the edge's")
	}
	if st.EdgeChaos.InjectedTotal() == 0 || st.Inproc.FaultsInjected() != 0 || st.ProxyChaos != nil {
		t.Fatal("faults outside the edge->origin leg, or none on it")
	}
	if err := st.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if st.Inproc.Day() != 1 {
		t.Fatalf("day %d after AdvanceDay, want 1", st.Inproc.Day())
	}

	ext, err := NewStack(Options{}, StackOptions{Origin: st.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if ext.URL != st.URL || ext.Inproc != nil || ext.AdvanceDay() != nil {
		t.Fatalf("external origin: URL %s, fleet %v", ext.URL, ext.Inproc)
	}
}

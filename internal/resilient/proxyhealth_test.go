package resilient

import (
	"net/http/httptest"
	"testing"

	"planetapps/internal/proxy"
)

// TestProxyHealthPick holds the selector on a fake clock: healthy nodes
// share the load round-robin, a node that failed proxyFailThreshold
// transports in a row is skipped, and it is picked again once
// proxyCooldown has passed.
func TestProxyHealthPick(t *testing.T) {
	urls, err := proxy.ParseURLs([]string{"http://a:1", "http://b:2", "http://c:3"})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	ph := NewProxyHealth(urls, clock)
	pickHost := ph.ProxyFunc()
	picks := func(n int) map[string]int {
		t.Helper()
		hosts := map[string]int{}
		for i := 0; i < n; i++ {
			u, err := pickHost(httptest.NewRequest("GET", "http://origin/x", nil))
			if err != nil {
				t.Fatal(err)
			}
			hosts[u.Host]++
		}
		return hosts
	}

	if got := picks(9); got["a:1"] != 3 || got["b:2"] != 3 || got["c:3"] != 3 {
		t.Fatalf("healthy rotation uneven: %v", got)
	}

	for i := 0; i < proxyFailThreshold-1; i++ {
		ph.Report(0, false)
	}
	if got := picks(3); got["a:1"] != 1 || ph.Demotions() != 0 {
		t.Fatalf("node demoted below the threshold: picks %v, %d demotions", got, ph.Demotions())
	}
	ph.Report(0, false)
	if ph.Demotions() != 1 {
		t.Fatalf("Demotions = %d after %d failures, want 1", ph.Demotions(), proxyFailThreshold)
	}
	if got := picks(8); got["a:1"] != 0 || got["b:2"] != 4 || got["c:3"] != 4 {
		t.Fatalf("demoted node still picked, or the rest uneven: %v", got)
	}

	clock.Advance(proxyCooldown - 1)
	if got := picks(2); got["a:1"] != 0 {
		t.Fatalf("node re-admitted before its cooldown: %v", got)
	}
	clock.Advance(1)
	if got := picks(3); got["a:1"] != 1 || got["b:2"] != 1 || got["c:3"] != 1 {
		t.Fatalf("node not re-admitted after its cooldown: %v", got)
	}
}

package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"planetapps/internal/apiwire"
	"planetapps/internal/storeserver"
)

// post sends one POST through the in-memory transport.
func post(t *testing.T, h http.Handler, path, body, idemKey string) (*http.Response, []byte) {
	t.Helper()
	client := &http.Client{Transport: HandlerTransport{Handler: h}}
	req, err := http.NewRequest(http.MethodPost, "http://test"+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestGatewayRoutesWrites drives the write path through a 2-shard fleet:
// the gateway forwards each POST to the app's owning shard, acks flow
// back with their headers, and after an AdvanceFleet roll every
// acknowledged write is visible through the gateway — details, comments,
// and the summed stats document.
func TestGatewayRoutesWrites(t *testing.T) {
	ip := newFleet(t, 2, 50)
	gw := ip.Gateway

	var statsBefore storeserver.StatsJSON
	if resp, body := get(t, gw, "/api/v1/stats", nil); resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	} else if err := json.Unmarshal(body, &statsBefore); err != nil {
		t.Fatal(err)
	}

	// Hit enough apps that both shards own some of the writes.
	apps := []int{0, 1, 2, 3, 4, 5, 6, 7}
	befores := make(map[int]int64, len(apps))
	for _, id := range apps {
		var a storeserver.AppJSON
		_, body := get(t, gw, "/api/v1/apps/"+strconv.Itoa(id), nil)
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		befores[id] = a.Downloads
	}

	for _, id := range apps {
		p := "/api/v1/apps/" + strconv.Itoa(id)
		resp, body := post(t, gw, p+"/download", `{"user":501}`, "gw-"+strconv.Itoa(id))
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s/download: %d %s", p, resp.StatusCode, body)
		}
		var ack storeserver.WriteAckJSON
		if err := json.Unmarshal(body, &ack); err != nil || !ack.Accepted {
			t.Fatalf("ack %s: %v", body, err)
		}
		if resp.Header.Get("X-Store-Day") == "" {
			t.Fatal("proxied ack lost X-Store-Day")
		}
		// Idempotent replay through the gateway dedups on the owning shard.
		resp, body = post(t, gw, p+"/download", `{"user":501}`, "gw-"+strconv.Itoa(id))
		var replay storeserver.WriteAckJSON
		if err := json.Unmarshal(body, &replay); err != nil || replay != (storeserver.WriteAckJSON{Accepted: true, Day: ack.Day, Deduped: true}) {
			t.Fatalf("replay %d %s (want deduped ack of day %d)", resp.StatusCode, body, ack.Day)
		}
		if resp, body = post(t, gw, p+"/comments", `{"user":501,"rating":4}`, ""); resp.StatusCode != 200 {
			t.Fatalf("POST %s/comments: %d %s", p, resp.StatusCode, body)
		}
	}

	// The writes spread across both shards (consistent hashing over 8 apps
	// makes a single-owner split astronomically unlikely with 2 shards).
	withWrites := 0
	for _, srv := range ip.Servers {
		if srv.WALStats().Accepted > 0 {
			withWrites++
		}
	}
	if withWrites != 2 {
		t.Fatalf("writes landed on %d of 2 shards", withWrites)
	}

	if err := ip.AdvanceDay(); err != nil {
		t.Fatal(err)
	}

	for _, id := range apps {
		p := "/api/v1/apps/" + strconv.Itoa(id)
		var a storeserver.AppJSON
		_, body := get(t, gw, p, nil)
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		if a.Downloads < befores[id]+1 {
			t.Fatalf("app %d: downloads %d -> %d, write lost", id, befores[id], a.Downloads)
		}
		var cs []storeserver.CommentJSON
		_, body = get(t, gw, p+"/comments", nil)
		if err := json.Unmarshal(body, &cs); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range cs {
			if c.User == 501 && c.Rating == 4 {
				found = true
			}
		}
		if !found {
			t.Fatalf("app %d: merged comment missing", id)
		}
	}

	var statsAfter storeserver.StatsJSON
	_, body := get(t, gw, "/api/v1/stats", nil)
	if err := json.Unmarshal(body, &statsAfter); err != nil {
		t.Fatal(err)
	}
	if statsAfter.TotalDownloads < statsBefore.TotalDownloads+int64(len(apps)) {
		t.Fatalf("summed stats %d -> %d, want >= +%d",
			statsBefore.TotalDownloads, statsAfter.TotalDownloads, len(apps))
	}

	// No lost acknowledged writes anywhere in the fleet.
	for i, srv := range ip.Servers {
		st := srv.WALStats()
		if st.Accepted != st.Merged || st.Pending != 0 {
			t.Fatalf("shard %d wal stats: %+v", i, st)
		}
	}
}

// TestGatewayWriteMethodSurface pins the fleet-level 405 contract: the
// gateway answers wrong methods itself, with each route's true Allow set
// — including POST-only for a GET on a write-only tail.
func TestGatewayWriteMethodSurface(t *testing.T) {
	ip := newFleet(t, 2, 50)
	gw := ip.Gateway

	resp, body := post(t, gw, "/api/v1/stats", "{}", "")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST /api/v1/stats: %d Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	var e apiwire.ErrorJSON
	if json.Unmarshal(body, &e) != nil || e.Error.Code != "method_not_allowed" {
		t.Fatalf("gateway v1 405 envelope: %s", body)
	}

	// App-scoped wrong method: the same verdict a shard would render.
	client := &http.Client{Transport: HandlerTransport{Handler: gw}}
	req, _ := http.NewRequest(http.MethodGet, "http://test/api/v1/apps/3/download", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET write tail via gateway: %d Allow %q body %s",
			resp.StatusCode, resp.Header.Get("Allow"), b)
	}
	if json.Unmarshal(b, &e) != nil || e.Error.Code != "method_not_allowed" {
		t.Fatalf("app-route 405 envelope: %s", b)
	}
}

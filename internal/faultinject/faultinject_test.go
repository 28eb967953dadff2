package faultinject

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// okBody is the document okHandler serves.
const okBody = `{"apps":[1,2,3],"total":3,"note":"abcdefghijklmnopqrstuvwxyz"}`

// okHandler serves a small JSON document with a declared length, the shape
// the storeserver's pre-encoded documents have.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", itoa(len(okBody)))
		io.WriteString(w, okBody) //nolint:errcheck
	})
}

func itoa(n int) string {
	return string(append([]byte(nil), []byte{byte('0' + n/10), byte('0' + n%10)}...))
}

// TestDecisionDeterminism: the fault pattern is a pure function of
// (seed, rule, arrival index) — two injectors with the same seed decide
// identically, a different seed decides differently somewhere.
func TestDecisionDeterminism(t *testing.T) {
	sc := Scenario{Name: "t", Rules: []Rule{{Kind: KindError, Prob: 0.3, Node: -1}}}
	seqFor := func(seed uint64) []bool {
		in := New(sc, seed, nil)
		out := make([]bool, 200)
		for i := range out {
			ri, _ := in.decide("/api/v1/apps")
			out[i] = ri >= 0
		}
		return out
	}
	a, b, c := seqFor(7), seqFor(7), seqFor(8)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different fault sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
}

func TestPhaseWindowDrains(t *testing.T) {
	// Every=10 Span=4: arrivals 0-3 fault, 4-9 pass, 10-13 fault, ...
	sc := Scenario{Rules: []Rule{{Kind: KindError, Prob: 1, Every: 10, Span: 4, Node: -1}}}
	in := New(sc, 1, nil)
	for i := 0; i < 30; i++ {
		ri, _ := in.decide("/x")
		want := i%10 < 4
		if (ri >= 0) != want {
			t.Fatalf("arrival %d: faulted=%v want %v", i, ri >= 0, want)
		}
	}
}

func TestErrorAndRateLimitInjection(t *testing.T) {
	sc := Scenario{Rules: []Rule{
		{Route: "/err", Kind: KindError, Prob: 1, Status: 503, RetryAfter: 1500 * time.Millisecond, Node: -1},
		{Route: "/rl", Kind: KindRateLimit, Prob: 1, RetryAfter: 30 * time.Millisecond, Node: -1},
	}}
	in := New(sc, 1, nil)
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/err")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// The envelope's header: 1.5 s in ceiling seconds.
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	resp, err = http.Get(ts.URL + "/rl")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if in.injected[KindError].Value() != 1 || in.injected[KindRateLimit].Value() != 1 {
		t.Fatalf("injection counters: err=%d rl=%d", in.injected[KindError].Value(), in.injected[KindRateLimit].Value())
	}
}

func TestResetSurfacesAsTransportError(t *testing.T) {
	sc := Scenario{Rules: []Rule{{Kind: KindReset, Prob: 1, Node: -1}}}
	in := New(sc, 1, nil)
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err == nil {
		// Some stacks surface the RST while reading the body instead.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("reset injection produced a clean response")
	}
}

func TestTruncateBreaksBody(t *testing.T) {
	sc := Scenario{Rules: []Rule{{Kind: KindTruncate, Prob: 1, TruncateAt: 8, Node: -1}}}
	in := New(sc, 1, nil)
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		return // truncation may already break the response exchange
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && len(body) >= 60 {
		t.Fatalf("full body arrived despite truncation: %d bytes", len(body))
	}
}

func TestCorruptionIsInvalidJSON(t *testing.T) {
	sc := Scenario{Rules: []Rule{{Kind: KindCorrupt, Prob: 1, Node: -1}}}
	in := New(sc, 1, nil)
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("corrupted body still decodes: %q", body)
	}
	if !strings.Contains(string(body), "\x00") {
		t.Fatalf("no NUL bytes in corrupted body: %q", body)
	}
}

func TestSlowLorisStillDelivers(t *testing.T) {
	sc := Scenario{Rules: []Rule{{Kind: KindSlowLoris, Prob: 1, Delay: time.Millisecond, Node: -1}}}
	in := New(sc, 1, nil)
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	start := time.Now()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("loris-delivered body corrupt: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Log("warning: loris pacing too fast to observe")
	}
}

func TestNodeScoping(t *testing.T) {
	sc, err := Lookup("proxy-partition")
	if err != nil {
		t.Fatal(err)
	}
	dead := NewForNode(sc, 1, 0, nil)
	healthy := NewForNode(sc, 1, 2, nil)
	for i := 0; i < 50; i++ {
		if ri, _ := dead.decide("/any"); ri < 0 {
			t.Fatal("partitioned node 0 passed a request")
		}
		if ri, _ := healthy.decide("/any"); ri >= 0 {
			t.Fatal("healthy node 2 injected a fault")
		}
	}
}

func TestRoundTripperInjection(t *testing.T) {
	origin := httptest.NewServer(okHandler())
	defer origin.Close()
	sc := Scenario{Rules: []Rule{{Kind: KindError, Prob: 1, Status: 503, RetryAfter: 8 * time.Millisecond, Node: -1}}}
	in := New(sc, 1, nil)
	client := &http.Client{Transport: in.RoundTripper(nil)}
	resp, err := client.Get(origin.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want synthesized 503", resp.StatusCode)
	}
	// The store's envelope, byte for byte: the header in ceiling seconds,
	// the body carrying the hint in milliseconds.
	want := httptest.NewRecorder()
	WriteEnvelope(want, 503, 8*time.Millisecond)
	if string(body) != want.Body.String() || resp.Header.Get("Retry-After") != "1" || !strings.Contains(string(body), `"retry_after_ms":8`) {
		t.Fatalf("synthesized 503: Retry-After %q, body %q; want the envelope %q", resp.Header.Get("Retry-After"), body, want.Body)
	}
}

// TestBothSidesInjectTheSameFault runs one scenario and seed per Kind
// through Wrap, behind a server, and through RoundTripper, in front of a
// server of the same handler, and holds the two sides to the same
// outcome arrival by arrival: the same status, Retry-After and body
// bytes, and a transport error on the same arrivals.
func TestBothSidesInjectTheSameFault(t *testing.T) {
	type outcome struct {
		status     int
		retryAfter string
		body       string
		failed     bool
	}
	// A fresh connection per request: a transport retrying a GET on a
	// reused connection that was reset would advance the arrival counter.
	client := func(rt http.RoundTripper) *http.Client {
		if rt == nil {
			rt = &http.Transport{DisableKeepAlives: true}
		}
		return &http.Client{Transport: rt}
	}
	fetch := func(c *http.Client, url string) outcome {
		resp, err := c.Get(url)
		if err != nil {
			return outcome{failed: true}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return outcome{resp.StatusCode, resp.Header.Get("Retry-After"), string(body), err != nil}
	}
	envelope := func(status int) string {
		rec := httptest.NewRecorder()
		WriteEnvelope(rec, status, 1500*time.Millisecond)
		return rec.Body.String()
	}
	for k := Kind(0); k < numKinds; k++ {
		t.Run(k.String(), func(t *testing.T) {
			sc := Scenario{Rules: []Rule{{Kind: k, Prob: 0.5, Status: 503, RetryAfter: 1500 * time.Millisecond,
				Delay: time.Millisecond, TruncateAt: 8, Node: -1}}}
			server, side := New(sc, 3, nil), New(sc, 3, nil)
			wrapped := httptest.NewServer(server.Wrap(okHandler()))
			defer wrapped.Close()
			origin := httptest.NewServer(okHandler())
			defer origin.Close()
			viaWrap := client(nil)
			viaRT := client(side.RoundTripper(&http.Transport{DisableKeepAlives: true}))
			var faults, passes int
			for i := 0; i < 16; i++ {
				before := server.InjectedTotal()
				got, want := fetch(viaWrap, wrapped.URL+"/x"), fetch(viaRT, origin.URL+"/x")
				if got != want {
					t.Fatalf("arrival %d: Wrap gave %+v, RoundTripper %+v", i, got, want)
				}
				if server.InjectedTotal() != side.InjectedTotal() {
					t.Fatalf("arrival %d: %d faults injected by Wrap, %d by RoundTripper", i, server.InjectedTotal(), side.InjectedTotal())
				}
				intact := outcome{status: 200, body: okBody}
				if server.InjectedTotal() == before {
					passes++
					if got != intact {
						t.Fatalf("arrival %d passed but arrived as %+v", i, got)
					}
					continue
				}
				faults++
				var ok bool
				switch k {
				case KindLatency, KindSlowLoris:
					ok = got == intact
				case KindError:
					ok = got == outcome{503, "2", envelope(503), false}
				case KindRateLimit:
					ok = got == outcome{429, "2", envelope(429), false}
				case KindReset:
					ok = got.failed
				case KindTruncate:
					ok = got.failed && got.body == okBody[:8]
				case KindCorrupt:
					ok = got.status == 200 && got.body == okBody[:2]+"\x00\x00\x00\x00"+okBody[6:]
				}
				if !ok {
					t.Fatalf("arrival %d: %s fault arrived as %+v", i, k, got)
				}
			}
			if faults == 0 || passes == 0 {
				t.Fatalf("%d faults and %d passes in 16 arrivals: the seed exercises one side of the rule only", faults, passes)
			}
		})
	}
}

func TestLookupAndScale(t *testing.T) {
	for _, name := range Names() {
		if _, err := Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	sc, _ := Lookup("latency")
	half := sc.Scale(0.5)
	if half.Rules[0].Delay != sc.Rules[0].Delay/2 {
		t.Fatalf("Scale: delay %v want %v", half.Rules[0].Delay, sc.Rules[0].Delay/2)
	}
	if sc.Rules[0].Delay == 0 {
		t.Fatal("Scale mutated the original")
	}
}

// TestDrawStreamDigest pins the decision and jitter variates for a spread of
// seeds, nodes, rules and arrivals, hashed. Taken before the decision hash
// became rng.Mix64; a change here moves every fault a chaos run injects.
func TestDrawStreamDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for _, node := range []int{-1, 0, 3} {
			in := NewForNode(Scenario{}, seed, node, nil)
			for ri := 0; ri < 4; ri++ {
				for n := int64(0); n < 1000; n++ {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.draw(ri, n)))
					h.Write(buf[:]) //nolint:errcheck
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.jitterDraw(ri, n)))
					h.Write(buf[:]) //nolint:errcheck
				}
			}
		}
	}
	const want = "bb1615f038706bf9e859b588e9e38e5d232ec80004ce7fbaa230d430a8aad4d1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("draw stream digest = %s, want %s", got, want)
	}
}

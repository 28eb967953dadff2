package storeserver

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"planetapps/internal/comments"
	"planetapps/internal/marketsim"
)

// TestServedBytesMatchTheirValidators: no document keeps its identity
// bytes, so they are re-encoded on every identity 200, and decided again by
// whichever snapshot serves it — a carried handle included. A
// single node and a four-shard fleet absorb downloads and comments through
// ten rolls; at every roll, for stats and for every app's detail and
// comment stream, the served identity body must be encoding/json's
// rendering of the wire struct (the gzip body, where one was kept, must
// inflate to it), the body's length must be its Content-Length, an ETag
// seen on two days must name the same bytes on both, and neither a 304 nor
// a HEAD may write a body, the one thing a filled document encodes for,
// whether the validator named the identity or the gzip representation. A
// validator carried across a row-version bump fails the third check on the
// first roll that moves a row.
func TestServedBytesMatchTheirValidators(t *testing.T) {
	const apps, rolls = 1200, 10
	cs, err := comments.Generate(retentionMarket(t, apps).Catalog(), comments.DefaultGenConfig(apps/2), 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := func(n int) []*Server {
		var ss []*Server
		for k := int32(0); k < int32(n); k++ {
			k := k
			cfg := Config{PageSize: 100}
			if n > 1 {
				cfg.Partition = marketsim.NewPartitioner(func(id int32) bool { return id%int32(n) == k })
			}
			ss = append(ss, New(retentionMarket(t, apps), cfg))
		}
		return ss
	}
	for _, rig := range []struct {
		name   string
		stores []*Server
	}{
		{"single node", shards(1)},
		{"4 shards", shards(4)},
	} {
		t.Run(rig.name, func(t *testing.T) {
			hs := make([]http.Handler, len(rig.stores))
			seen := make([]map[string]string, len(rig.stores)) // per store: ETag -> bytes
			for k, s := range rig.stores {
				s.SetComments(cs)
				hs[k], seen[k] = s.Handler(), map[string]string{}
			}
			var gz, reused int
			for roll := 0; ; roll++ {
				for k, s := range rig.stores {
					sn := s.snap.Load()
					c := validatorCheck{t: t, h: hs[k], seen: seen[k], day: sn.dayStr}
					c.doc("/api/v1/stats", viaEncodingJSON(StatsJSON{
						Store: sn.store, Day: sn.day, Apps: sn.n, TotalDownloads: sn.ex.TotalDownloads()}))
					for i := 0; i < sn.n; i++ {
						path := "/api/v1/apps/" + strconv.Itoa(int(sn.ex.ID(i)))
						c.doc(path, viaEncodingJSON(sn.wireRow(i)))
						stream := sn.commentStream(i)
						if stream == nil {
							stream = []CommentJSON{}
						}
						c.doc(path+"/comments", viaEncodingJSON(stream))
					}
					gz += c.gz
					reused += c.reused
				}
				if roll == rolls {
					break
				}
				// Downloads and comments on a dozen apps a day, each sent
				// to the store that owns it, absorbed by the roll.
				for j := 0; j < 12; j++ {
					id := (roll*97 + j*61) % apps
					k := id % len(rig.stores)
					base := "/api/v1/apps/" + strconv.Itoa(id)
					user := strconv.Itoa(7000 + roll*12 + j)
					post(t, hs[k], base+"/download", `{"user":`+user+`}`)
					post(t, hs[k], base+"/comments", `{"user":`+user+`,"rating":`+strconv.Itoa(1+j%5)+`}`)
				}
				for _, s := range rig.stores {
					if err := s.AdvanceDay(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if gz == 0 || reused == 0 {
				t.Fatalf("%d gzip representations checked, %d ETags seen again on a later day: the run needs both", gz, reused)
			}
			t.Logf("%d gzip bodies checked, %d validators carried to a later day", gz, reused)
		})
	}
}

// validatorCheck checks one store's documents on one day.
type validatorCheck struct {
	t      *testing.T
	h      http.Handler
	seen   map[string]string
	day    string
	gz     int // gzip representations checked
	reused int // ETags already seen on an earlier day
}

// doc checks the document at path against want, its encoding/json
// rendering.
func (c *validatorCheck) doc(path string, want []byte) {
	t := c.t
	t.Helper()
	rec := c.get(http.MethodGet, path, "identity", "")
	body := rec.Body.Bytes()
	etag := rec.Header().Get("Etag")
	if rec.Code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("day %s %s: status %d, served\n %s\nwant\n %s", c.day, path, rec.Code, body, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("day %s %s: Content-Length %s on %d bytes", c.day, path, cl, len(body))
	}
	if prev, ok := c.seen[etag]; !ok {
		c.seen[etag] = string(body)
	} else if prev != string(body) {
		t.Fatalf("day %s %s: ETag %s names\n %s\nafter naming\n %s", c.day, path, etag, body, prev)
	} else if !strings.HasPrefix(etag, `"s`) {
		c.reused++
	}

	// The document is filled by now, so this identity 200 re-encodes its
	// bytes: for a long comment stream, the only path that renders them.
	if again := c.get(http.MethodGet, path, "identity", ""); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), want) ||
		again.Header().Get("Etag") != etag || again.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("day %s %s: a filled document's identity GET answered %d, ETag %s, Content-Length %s:\n %s",
			c.day, path, again.Code, again.Header().Get("Etag"), again.Header().Get("Content-Length"), again.Body.Bytes())
	}

	if g := c.get(http.MethodGet, path, "gzip", ""); g.Header().Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(g.Body)
		if err != nil {
			t.Fatal(err)
		}
		if inflated, err := io.ReadAll(zr); err != nil || !bytes.Equal(inflated, want) {
			t.Fatalf("day %s %s: gzip body inflates to %q (%v)", c.day, path, inflated, err)
		}
		gzEtag := g.Header().Get("Etag")
		if gzEtag == etag {
			t.Fatalf("day %s %s: the gzip representation carries the identity ETag %s", c.day, path, etag)
		}
		if rec := c.get(http.MethodGet, path, "gzip", gzEtag); rec.Code != http.StatusNotModified || rec.wrote {
			t.Fatalf("day %s %s: gzip revalidation answered %d (body written: %v), want a 304 with none", c.day, path, rec.Code, rec.wrote)
		}
		c.gz++
	}

	// The document is filled by now, so the one encode left on its path
	// is the render whose bytes the body's Write carries: a response that
	// writes nothing, not even an empty body, encoded nothing.
	if rec = c.get(http.MethodGet, path, "identity", etag); rec.Code != http.StatusNotModified || rec.wrote {
		t.Fatalf("day %s %s: revalidation answered %d (body written: %v), want a 304 with none", c.day, path, rec.Code, rec.wrote)
	}
	if rec = c.get(http.MethodHead, path, "identity", ""); rec.Code != http.StatusOK || rec.wrote ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("day %s %s: HEAD answered %d, Content-Length %s (body written: %v)",
			c.day, path, rec.Code, rec.Header().Get("Content-Length"), rec.wrote)
	}
}

// bodyRecorder is an httptest.ResponseRecorder that also notes whether the
// handler called Write at all.
type bodyRecorder struct {
	*httptest.ResponseRecorder
	wrote bool
}

func (r *bodyRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseRecorder.Write(b)
}

func (c *validatorCheck) get(method, path, acceptEncoding, ifNoneMatch string) *bodyRecorder {
	req := httptest.NewRequest(method, path, nil)
	req.Header.Set("Accept-Encoding", acceptEncoding)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := &bodyRecorder{ResponseRecorder: httptest.NewRecorder()}
	c.h.ServeHTTP(rec, req)
	return rec
}

// post sends one write to h and fails unless it is accepted.
func post(t *testing.T, h http.Handler, path, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
	}
}

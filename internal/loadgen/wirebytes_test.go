package loadgen

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"planetapps/internal/apiwire"
	"planetapps/internal/gzipx"
)

// TestWireByteAccounting pins the per-class wire accounting: a negotiated
// (AcceptGzip) run must record compressed responses and their wire size,
// while an identity run over the same workload records everything under
// identity bytes — and the compressed run must move fewer body bytes for
// the same documents. The target is a stand-in that keeps a gzip
// representation of its listing: of the documents the generator's read
// classes fetch from the store itself — detail rows, listing slices —
// none is one gzip pays for (gzipx.CompressIfPays), so a run against it
// negotiates and still receives identity.
func TestWireByteAccounting(t *testing.T) {
	detail := []byte(`{"id":1,"name":"app"}` + "\n")
	listing := bytes.Repeat([]byte(`{"id":1,"name":"app","category":"games","downloads":12345},`), 50)
	listingGz := gzipx.Compress(listing)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path != apiwire.ListPath:
			w.Write(detail) //nolint:errcheck
		case gzipx.AcceptsGzip(r.Header.Get("Accept-Encoding")):
			w.Header().Set("Content-Encoding", "gzip")
			w.Write(listingGz) //nolint:errcheck
		default:
			w.Write(listing) //nolint:errcheck
		}
	}))
	defer ts.Close()
	const n = 200
	run := func(acceptGzip bool) *Report {
		t.Helper()
		g, err := New(Config{
			BaseURL:    ts.URL,
			Mode:       ClosedLoop,
			Users:      4,
			AcceptGzip: acceptGzip,
			ListEvery:  8,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(n, 50, 40)))
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, rep)
		return rep
	}

	id := run(false)
	if id.GzipResponses != 0 || id.GzipBytes != 0 {
		t.Fatalf("identity run recorded compressed traffic: %d responses, %d bytes",
			id.GzipResponses, id.GzipBytes)
	}
	if id.IdentityBytes == 0 {
		t.Fatal("identity run recorded no body bytes")
	}

	gz := run(true)
	if gz.GzipResponses == 0 || gz.GzipBytes == 0 {
		t.Fatal("negotiated run never recorded a compressed response")
	}
	if wire := gz.GzipBytes + gz.IdentityBytes; wire >= id.IdentityBytes {
		t.Fatalf("compression saved nothing on the wire: %d bytes negotiated vs %d identity",
			wire, id.IdentityBytes)
	}

	// The per-class split must add up to the report totals.
	for _, rep := range []*Report{id, gz} {
		var gzb, idb, gzr int64
		for _, c := range rep.Classes {
			gzb += c.GzipBytes
			idb += c.IdentityBytes
			gzr += c.GzipResponses
		}
		if gzb != rep.GzipBytes || idb != rep.IdentityBytes || gzr != rep.GzipResponses {
			t.Fatalf("class wire totals (%d gz, %d id, %d responses) != report (%d, %d, %d)",
				gzb, idb, gzr, rep.GzipBytes, rep.IdentityBytes, rep.GzipResponses)
		}
	}
	t.Logf("wire: identity %d bytes; negotiated %d compressed + %d identity (%d gzip responses)",
		id.IdentityBytes, gz.GzipBytes, gz.IdentityBytes, gz.GzipResponses)
}

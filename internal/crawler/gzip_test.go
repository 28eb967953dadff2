package crawler

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/comments"
	"planetapps/internal/db"
	"planetapps/internal/faultinject"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// gzipStore is chaosStore with the storeserver handle exposed, so tests
// can roll the day under the crawler. An identity store strips
// Accept-Encoding from every request before the store sees it, so the
// crawler, which always asks for gzip, is answered in identity.
func gzipStore(t *testing.T, inj *faultinject.Injector, identity bool) (*storeserver.Server, *httptest.Server) {
	t.Helper()
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.05))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := storeserver.New(m, storeserver.Config{PageSize: 40})
	cs, err := comments.Generate(m.Catalog(), comments.DefaultGenConfig(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetComments(cs)
	if inj != nil {
		srv.SetChaos(inj)
	}
	h := srv.Handler()
	if identity {
		next := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept-Encoding")
			next.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestGzipCrawlByteIdentical pins the transfer-encoding convergence
// contract: a compressed crawl ingests exactly the bytes an identity
// crawl does — across a conditional re-crawl, and across a day-roll where
// carried documents revalidate against their gzip-variant ETags and
// changed documents re-transfer compressed.
func TestGzipCrawlByteIdentical(t *testing.T) {
	idStore, idTS := gzipStore(t, nil, true)
	gzStore, gzTS := gzipStore(t, nil, false)

	idCfg := DefaultConfig(idTS.URL)
	idCfg.RatePerSec = 0
	idCfg.FetchComments = true
	idCrawler, err := New(idCfg, db.New())
	if err != nil {
		t.Fatal(err)
	}

	gzCfg := DefaultConfig(gzTS.URL)
	gzCfg.RatePerSec = 0
	gzCfg.FetchComments = true
	gzCrawler, err := New(gzCfg, db.New())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	pass := func(label string) (Stats, Stats) {
		t.Helper()
		idSt, err := idCrawler.CrawlDay(ctx)
		if err != nil {
			t.Fatalf("%s: identity crawl: %v", label, err)
		}
		gzSt, err := gzCrawler.CrawlDay(ctx)
		if err != nil {
			t.Fatalf("%s: gzip crawl: %v", label, err)
		}
		want, got := canonical(t, idCrawler.DB()), canonical(t, gzCrawler.DB())
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: gzip crawl diverged from identity crawl (%d vs %d canonical bytes)",
				label, len(got), len(want))
		}
		return idSt, gzSt
	}

	idSt, gzSt := pass("day 0")
	if idSt.Client.GzipResponses != 0 {
		t.Fatalf("identity crawl decompressed %d responses", idSt.Client.GzipResponses)
	}
	if gzSt.Client.GzipResponses == 0 {
		t.Fatal("gzip crawl never received a compressed response")
	}
	if gzSt.Client.GzipWireBytes >= gzSt.Client.GzipInflatedBytes {
		t.Fatalf("compression saved nothing: %d wire vs %d inflated bytes",
			gzSt.Client.GzipWireBytes, gzSt.Client.GzipInflatedBytes)
	}

	// Same-day re-crawl: the conditional cache revalidates with the
	// gzip-variant ETags the store minted, so most answers are 304s.
	_, gzSt2 := pass("day 0 re-crawl")
	if gzSt2.NotModified == 0 {
		t.Fatal("re-crawl earned no 304s: gzip ETags are not revalidating")
	}

	// Roll both stores: carried docs (unchanged comment streams) keep
	// their gzip-variant ETags and must keep 304-ing; the day's changed
	// content travels via cursor pages (identity by design — they are
	// rendered per request, not cached docs) and identity must still hold.
	if err := idStore.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	if err := gzStore.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	_, gzSt3 := pass("day 1")
	if gzSt3.NotModified <= gzSt2.NotModified {
		t.Fatal("post-roll crawl revalidated nothing (carried docs should 304)")
	}
	t.Logf("gzip crawl: %d compressed responses, %d wire bytes for %d inflated (%.1f%% saved), %d not-modified",
		gzSt3.Client.GzipResponses, gzSt3.Client.GzipWireBytes, gzSt3.Client.GzipInflatedBytes,
		100*(1-float64(gzSt3.Client.GzipWireBytes)/float64(gzSt3.Client.GzipInflatedBytes)),
		gzSt3.NotModified)
}

// TestGzipCrawlConvergesUnderCorruption points the corruption scenario at
// a gzip crawl: zeroed spans now land mid-deflate-stream, the CRC (not
// json.Valid) catches them, and the invalid-body re-fetch path must still
// converge to a database byte-identical to a fault-free identity crawl.
func TestGzipCrawlConvergesUnderCorruption(t *testing.T) {
	_, cleanTS := gzipStore(t, nil, true)
	cleanCfg := DefaultConfig(cleanTS.URL)
	cleanCfg.RatePerSec = 0
	cleanCfg.FetchComments = true
	cleanDB, _ := crawlOnce(t, cleanCfg)
	want := canonical(t, cleanDB)

	sc, err := faultinject.Lookup("corruption")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(sc.Scale(0.2), 0x6219, nil)
	_, chaosTS := gzipStore(t, inj, false)
	cfg := DefaultConfig(chaosTS.URL)
	cfg.RatePerSec = 0
	cfg.FetchComments = true
	cfg.MaxRetries = 12
	cfg.HedgeAfter = 60 * time.Millisecond
	d, st := crawlOnce(t, cfg)

	if got := canonical(t, d); !bytes.Equal(got, want) {
		t.Fatalf("gzip crawl under corruption diverged from fault-free identity crawl (%d vs %d canonical bytes)",
			len(got), len(want))
	}
	if inj.InjectedTotal() == 0 {
		t.Fatal("corruption scenario injected nothing")
	}
	if st.Client.GzipResponses == 0 {
		t.Fatal("chaos crawl never exercised the compressed path")
	}
	if st.Client.InvalidBodies == 0 {
		t.Fatal("no corrupted body was ever detected — injection missed the JSON payloads")
	}
	t.Logf("corruption+gzip: %d faults, %d invalid bodies re-fetched, %d compressed responses",
		inj.InjectedTotal(), st.Client.InvalidBodies, st.Client.GzipResponses)
}

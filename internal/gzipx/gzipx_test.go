package gzipx

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"planetapps/internal/rng"
)

func TestCompressRoundTrip(t *testing.T) {
	src := bytes.Repeat([]byte(`{"id":1,"name":"slideme-app-00001"}`), 64)
	gz := Compress(src)
	if len(gz) >= len(src) {
		t.Fatalf("repetitive JSON did not compress: %d >= %d", len(gz), len(src))
	}
	got, err := Decompress(gz)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("round trip not byte-identical")
	}
}

func TestDecompressDamage(t *testing.T) {
	gz := Compress([]byte(`{"apps":[1,2,3,4,5,6,7,8,9,10]}`))
	// Header damage (the chaos injector zeroes bytes [2,6), mangling the
	// compression-method byte), payload damage, and truncation must all
	// surface as errors — never as silently wrong bytes.
	hdr := append([]byte(nil), gz...)
	hdr[2], hdr[3] = 0, 0
	if _, err := Decompress(hdr); err == nil {
		t.Fatal("mangled header accepted")
	}
	crc := append([]byte(nil), gz...)
	crc[len(crc)-5] ^= 0xff
	if _, err := Decompress(crc); err == nil {
		t.Fatal("mangled checksum accepted")
	}
	if _, err := Decompress(gz[:len(gz)-8]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := Decompress(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		ae   string
		want bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{" gzip ", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip;q=1.0", true},
		{"br;q=1.0, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip; q=0", false},
		{"gzip;q=0.000", false},
		{"gzip;q=0.001", true},
		{"deflate", false},
		{"identity", false},
		{"*", false},
		{"x-gzip-ish", false},
		{"notgzip", false},
		{"deflate;q=1, gzip;q=0, br", false},
	}
	for _, c := range cases {
		if got := AcceptsGzip(c.ae); got != c.want {
			t.Errorf("AcceptsGzip(%q) = %v, want %v", c.ae, got, c.want)
		}
	}
}

func TestAcceptsGzipZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(200, func() {
		AcceptsGzip("br;q=1.0, gzip;q=0.5, deflate")
	}); n != 0 {
		t.Fatalf("AcceptsGzip allocates %.1f/op", n)
	}
}

// The documents TestPayTable measures are this API's, rebuilt here from
// their wire shapes (storeserver imports this package, so its real ones are
// out of reach): a detail row, and a comment stream of k comments. The
// generator is seeded, so the table is the same on every run.

type payRow struct {
	ID        int32   `json:"id"`
	Name      string  `json:"name"`
	Category  string  `json:"category"`
	Developer string  `json:"developer"`
	Paid      bool    `json:"paid"`
	Price     float64 `json:"price"`
	HasAds    bool    `json:"has_ads"`
	SizeMB    float64 `json:"size_mb"`
	Version   int     `json:"version"`
	Downloads int64   `json:"downloads"`
}

type payComment struct {
	User     int32 `json:"user"`
	Rating   int8  `json:"rating"`
	UnixTime int64 `json:"t"`
}

func payDoc(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPayTable is the measurement minPayingSize rests on. It compresses
// every document regardless of the floor and records, per kind and size
// bucket, what a gzip representation would save net of its framing; the
// assertions are the reasons the floor sits where it does, and the logged
// table (go test -v) is what the package comment quotes.
func TestPayTable(t *testing.T) {
	rnd := rng.New(21)
	categories := []string{"fun/games", "enterprise", "tools", "communication", "e-books", "health/fitness"}

	type bucket struct{ n, identity, gzip, worst, best int }
	mean := func(b *bucket) float64 { return float64(b.identity-b.gzip)/float64(b.n) - float64(framing) }
	table := map[string]*bucket{}
	var order []string
	record := func(kind string, doc []byte) {
		z := Compress(doc)
		net := len(doc) - len(z) - framing
		b := table[kind]
		if b == nil {
			b = &bucket{worst: net, best: net}
			table[kind] = b
			order = append(order, kind)
		}
		b.n++
		b.identity += len(doc)
		b.gzip += len(z)
		b.worst, b.best = min(b.worst, net), max(b.best, net)

		// The rule itself, on every document measured: nothing under the
		// floor, and above it exactly the representations that pay.
		kept := CompressIfPays(doc)
		if want := len(doc) >= minPayingSize && net > 0; (kept != nil) != want {
			t.Fatalf("%s, %d B (gzip %d B): CompressIfPays kept=%v, want %v", kind, len(doc), len(z), kept != nil, want)
		}
		if kept != nil && !bytes.Equal(kept, z) {
			t.Fatalf("%s, %d B: CompressIfPays returned different bytes than Compress", kind, len(doc))
		}
	}

	for i := 0; i < 2000; i++ {
		r := payRow{
			ID:        int32(i * 7),
			Name:      "slideme-app-" + strconv.Itoa(100000 + i*7)[1:],
			Category:  categories[rnd.Intn(len(categories))],
			Developer: "dev-" + strconv.Itoa(10000 + rnd.Intn(900))[1:],
			HasAds:    rnd.Bool(0.5),
			SizeMB:    10 * rnd.Float64(),
			Version:   1 + rnd.Intn(4),
			Downloads: int64(rnd.Intn(100000)),
		}
		if rnd.Bool(0.25) {
			r.Paid, r.Price = true, float64(rnd.Intn(1000))/100
		}
		doc := payDoc(t, r)
		if len(doc) >= minPayingSize {
			t.Fatalf("detail row of %d B: the floor is meant to sit above every detail row", len(doc))
		}
		record("detail row", doc)
	}
	for k := 0; k <= 64; k++ {
		for rep := 0; rep < 8; rep++ {
			stream := make([]payComment, k)
			for j := range stream {
				stream[j] = payComment{
					User: int32(rnd.Intn(20000)), Rating: int8(1 + rnd.Intn(5)),
					UnixTime: int64(1356998400 + rnd.Intn(90*86400)),
				}
			}
			doc := payDoc(t, stream)
			var kind string
			switch n := len(doc); {
			case n <= 128:
				kind = "comments   <=128 B"
			case n <= 192:
				kind = "comments 129-192 B"
			case n < minPayingSize:
				kind = "comments 193-255 B"
			case n < 512:
				kind = "comments 256-511 B"
			case n < 2048:
				kind = "comments 0.5-2 KiB"
			default:
				kind = "comments   >=2 KiB"
			}
			record(kind, doc)
		}
	}
	// A listing page: 100 detail rows in the page envelope.
	for p := 0; p < 20; p++ {
		page := struct {
			Apps  []payRow `json:"apps"`
			Page  int      `json:"page"`
			Pages int      `json:"pages"`
			Total int      `json:"total"`
		}{Page: p, Pages: 20, Total: 2000}
		for i := 0; i < 100; i++ {
			page.Apps = append(page.Apps, payRow{
				ID: int32(p*100 + i), Name: "slideme-app-" + strconv.Itoa(100000 + p*100 + i)[1:],
				Category: categories[rnd.Intn(len(categories))], Developer: "dev-" + strconv.Itoa(10000 + rnd.Intn(900))[1:],
				SizeMB: 10 * rnd.Float64(), Version: 1, Downloads: int64(rnd.Intn(100000)),
			})
		}
		record("listing page", payDoc(t, page))
	}

	t.Logf("%-20s %6s %10s %10s %28s", "document", "n", "identity", "gzip", "net of 27 B framing (min/mean/max)")
	for _, kind := range order {
		b := table[kind]
		t.Logf("%-20s %6d %8.0f B %8.0f B %+8d / %+8.1f / %+8d B", kind, b.n,
			float64(b.identity)/float64(b.n), float64(b.gzip)/float64(b.n),
			b.worst, mean(b), b.best)
	}

	// Why the floor is where it is. The two populations that are nearly
	// all of a crawl's documents lose bytes to a gzip representation ...
	if b := table["detail row"]; b.best > 0 {
		t.Errorf("a detail row saved %d B: the floor is sized on the premise that none pays", b.best)
	}
	if b := table["comments   <=128 B"]; mean(b) >= 0 || b.best > 16 {
		t.Errorf("comment streams <=128 B: mean %+.1f B, best %+d B: the floor is sized on the premise that they lose", mean(b), b.best)
	}
	// ... what the floor forgoes between there and 256 B is a few dozen
	// bytes a document ...
	for _, kind := range []string{"comments 129-192 B", "comments 193-255 B"} {
		if b := table[kind]; b.best > 100 {
			t.Errorf("%s: best case saves %d B, more than the floor is meant to give up", kind, b.best)
		}
	}
	// ... and from the floor up every document of this API pays, by more
	// the larger it is.
	if b := table["comments 256-511 B"]; b.worst < 60 {
		t.Errorf("comments 256-511 B: worst case saves only %d B", b.worst)
	}
	if b := table["comments 0.5-2 KiB"]; b.worst < 250 {
		t.Errorf("comments 0.5-2 KiB: worst case saves only %d B", b.worst)
	}
	if b := table["listing page"]; b.gzip*4 > b.identity {
		t.Errorf("listing pages compress to %d of %d B: expected under a quarter", b.gzip, b.identity)
	}
}

// TestCompressIfPaysEdges: the rule at its two edges, on inputs gzip cannot
// help — incompressible bytes above the floor, and nothing at all.
func TestCompressIfPaysEdges(t *testing.T) {
	if CompressIfPays(nil) != nil || CompressIfPays([]byte("[]\n")) != nil {
		t.Fatal("a gzip representation was kept for an empty or three-byte document")
	}
	rnd := rng.New(1)
	noise := make([]byte, 4096)
	for i := range noise {
		noise[i] = byte(rnd.Uint64())
	}
	if CompressIfPays(noise) != nil {
		t.Fatal("a gzip representation was kept for incompressible bytes")
	}
	compressible := bytes.Repeat([]byte("a"), minPayingSize)
	if z := CompressIfPays(compressible); z == nil {
		t.Fatalf("%d compressible bytes at the floor were not compressed", minPayingSize)
	}
	if CompressIfPays(compressible[:minPayingSize-1]) != nil {
		t.Fatalf("%d bytes, one under the floor, were compressed", minPayingSize-1)
	}
}

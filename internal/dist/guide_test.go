package dist

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"planetapps/internal/rng"
)

// TestGuidedSearchIsSearchFloat64s holds Zipf.Sample and Categorical.Sample,
// which search the bracket a bucket guide gives, to sort.SearchFloat64s over
// the whole table: every guide entry is the unguided search of its bucket's
// lower edge, and the index is the same at every table entry, at the float
// on either side of it, at 0, and at a million seeded draws through Sample
// itself. The categorical tables zero every seventh weight, so equal
// neighbouring entries test the first-of-a-run rule.
func TestGuidedSearchIsSearchFloat64s(t *testing.T) {
	for _, n := range []int{1, 2, 7, 511, 512, 3333, 100000} {
		for _, s := range []float64{0, 1.1, 1.4} {
			z := mustZipf(n, s)
			weights := make([]float64, n)
			for i := range weights {
				if i%7 != 6 {
					weights[i] = math.Pow(float64(i+1), -s)
				}
			}
			c := MustCategorical(weights)
			for _, tc := range []struct {
				name   string
				cum    []float64
				guide  []int32
				sample func(*rng.RNG) int
			}{
				{"zipf", z.cum, z.guide, func(r *rng.RNG) int { return z.Sample(r) - 1 }},
				{"categorical", c.cum, c.guide, c.Sample},
			} {
				name := fmt.Sprintf("%s n=%d s=%v", tc.name, n, s)
				k := len(tc.guide) - 1
				for b, g := range tc.guide {
					if want := sort.SearchFloat64s(tc.cum, float64(b)/float64(k)); int(g) != want {
						t.Fatalf("%s: guide[%d] = %d, want %d", name, b, g, want)
					}
				}
				check := func(u float64) {
					if got, want := search(tc.cum, tc.guide, u), sort.SearchFloat64s(tc.cum, u); got != want {
						t.Fatalf("%s: u=%v: index %d, want %d", name, u, got, want)
					}
				}
				check(0)
				for _, v := range tc.cum {
					check(math.Nextafter(v, math.Inf(-1)))
					check(v)
					check(math.Nextafter(v, math.Inf(1)))
				}
				draws, twin := rng.New(uint64(n)), rng.New(uint64(n))
				for i := 0; i < 1_000_000; i++ {
					if got, want := tc.sample(draws), sort.SearchFloat64s(tc.cum, twin.Float64()); got != want {
						t.Fatalf("%s: draw %d: index %d, want %d", name, i, got, want)
					}
				}
			}
		}
	}
}

// TestNewZipfsIsOneTableASize holds the shared-prefix constructor to a
// table built for each size on its own, as NewZipf built it before the
// prefix was shared — sum, scale by 1/sum, pin the last entry to 1 — bit
// for bit, equal sizes sharing one Zipf and empty ones nil.
func TestNewZipfsIsOneTableASize(t *testing.T) {
	own := func(n int, s float64) []float64 {
		cum := make([]float64, n)
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += math.Pow(float64(i), -s)
			cum[i-1] = sum
		}
		inv := 1 / sum
		for i := range cum {
			cum[i] *= inv
		}
		cum[n-1] = 1
		return cum
	}
	sizes := []int{3333, 0, 1, 512, 3333, 7, 100000, 0, 2}
	for _, s := range []float64{0, 1.1, 1.4} {
		zs, err := NewZipfs(sizes, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range sizes {
			if n == 0 {
				if zs[i] != nil {
					t.Fatalf("s=%v: size 0 at %d has a Zipf", s, i)
				}
				continue
			}
			want := own(n, s)
			got := zs[i]
			if got.n != n || got.s != s || len(got.cum) != n || cap(got.cum) != n {
				t.Fatalf("s=%v size %d: n %d s %v table %d/%d", s, n, got.n, got.s, len(got.cum), cap(got.cum))
			}
			for j := range want {
				if math.Float64bits(got.cum[j]) != math.Float64bits(want[j]) {
					t.Fatalf("s=%v size %d: cum[%d] = %v, want %v", s, n, j, got.cum[j], want[j])
				}
			}
		}
		if zs[0] != zs[4] {
			t.Fatalf("s=%v: two Zipfs of size %d", s, sizes[0])
		}
	}
	if _, err := NewZipfs([]int{4, -1}, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewZipfs([]int{4}, math.NaN()); err == nil {
		t.Fatal("NaN exponent accepted")
	}
}

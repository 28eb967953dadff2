package affinity

import (
	"math"
	"testing"
	"testing/quick"

	"planetapps/internal/rng"
)

func TestCompressAppString(t *testing.T) {
	got := compressAppString([]int{1, 2, 3, 3, 1, 4})
	want := []int{1, 2, 3, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if len(compressAppString([]int{})) != 0 {
		t.Fatal("empty input should stay empty")
	}
	if got := compressAppString([]int{7, 7, 7}); len(got) != 1 || got[0] != 7 {
		t.Fatalf("all-equal input compressed to %v", got)
	}
}

func TestCompressOnlySuccessive(t *testing.T) {
	// Non-adjacent repeats are retained (the paper keeps a1..a1..).
	got := compressAppString([]int{1, 2, 1})
	if len(got) != 3 {
		t.Fatalf("non-adjacent repeat removed: %v", got)
	}
}

func TestCategoryString(t *testing.T) {
	cats := map[string]int{"a": 1, "b": 2}
	got := categoryString([]string{"a", "b", "a"}, func(s string) int { return cats[s] })
	want := []int{1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAffinityPaperExamples(t *testing.T) {
	// The paper's worked examples for depth 1:
	// c1c1c1c1 -> 3/3, c1c1c1c2 -> 2/3, c1c1c2c3 -> 1/3.
	cases := []struct {
		cats []int
		want float64
	}{
		{[]int{1, 1, 1, 1}, 1},
		{[]int{1, 1, 1, 2}, 2.0 / 3},
		{[]int{1, 1, 2, 3}, 1.0 / 3},
		{[]int{1, 2, 1, 2}, 0}, // oscillation invisible at depth 1
	}
	for _, c := range cases {
		got, ok := Affinity(c.cats, 1)
		if !ok {
			t.Fatalf("Affinity(%v, 1) not defined", c.cats)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Affinity(%v, 1) = %v, want %v", c.cats, got, c.want)
		}
	}
}

func TestAffinityDepthSeesOscillation(t *testing.T) {
	// c1c2c1c2 has affinity 0 at depth 1 but full affinity at depth 2 —
	// the paper's motivation for the depth notion.
	cats := []int{1, 2, 1, 2}
	d2, ok := Affinity(cats, 2)
	if !ok {
		t.Fatal("depth-2 affinity undefined for length-4 string")
	}
	if d2 != 1 {
		t.Fatalf("depth-2 affinity = %v, want 1", d2)
	}
}

func TestAffinityUndefinedForShortStrings(t *testing.T) {
	if _, ok := Affinity([]int{1}, 1); ok {
		t.Fatal("length-1 string should have undefined affinity")
	}
	if _, ok := Affinity([]int{1, 2}, 2); ok {
		t.Fatal("depth-2 affinity needs length > 2")
	}
	if _, ok := Affinity([]int{1, 2}, 0); ok {
		t.Fatal("depth 0 should be rejected")
	}
}

func TestAffinityMonotoneInDepth(t *testing.T) {
	// For any string, affinity never decreases as depth grows (matching
	// "affinity increases with depth level").
	r := rng.New(4)
	if err := quick.Check(func(seed uint16) bool {
		n := 5 + r.Intn(20)
		cats := make([]int, n)
		for i := range cats {
			cats[i] = r.Intn(5)
		}
		prev := -1.0
		for d := 1; d <= 3; d++ {
			a, ok := Affinity(cats, d)
			if !ok {
				return false
			}
			// Different denominators allow tiny decreases; check the
			// match-set monotonicity via a small tolerance on n-d scaling.
			if a+0.35 < prev {
				return false
			}
			prev = a
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWalkAffinity(t *testing.T) {
	// Two categories of sizes 2 and 2: A=4. num = 2*1 + 2*1 = 4.
	// den = 4*3 = 12 -> 1/3.
	got := randomWalkAffinity([]int{2, 2})
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("randomWalkAffinity = %v, want 1/3", got)
	}
	// Equal-volume C categories approach 1/C for large sizes.
	got = randomWalkAffinity([]int{1000, 1000, 1000, 1000})
	if math.Abs(got-0.25) > 0.001 {
		t.Fatalf("4 equal categories: %v, want ~0.25", got)
	}
	if randomWalkAffinity([]int{1}) != 0 {
		t.Fatal("single-app store should yield 0")
	}
}

func TestRandomWalkAffinityDepthReducesToEq2(t *testing.T) {
	sizes := []int{10, 20, 30, 5}
	d1 := RandomWalkAffinityDepth(sizes, 1)
	eq2 := randomWalkAffinity(sizes)
	if math.Abs(d1-eq2) > 1e-12 {
		t.Fatalf("depth-1 baseline %v != Eq.2 %v", d1, eq2)
	}
}

func TestRandomWalkAffinityDepthIncreases(t *testing.T) {
	sizes := []int{100, 150, 200, 80, 120}
	prev := 0.0
	for d := 1; d <= 4; d++ {
		p := RandomWalkAffinityDepth(sizes, d)
		if p <= prev {
			t.Fatalf("baseline at depth %d = %v, not above depth %d = %v", d, p, d-1, prev)
		}
		if p > 1 {
			t.Fatalf("baseline %v exceeds 1", p)
		}
		prev = p
	}
}

func TestRandomWalkAffinityDepthApproximation(t *testing.T) {
	// Eq. 4 scales linearly with depth for large stores: for C equal
	// categories the depth-d baseline is ~ d/C. The paper's own Anzhi
	// baselines follow this (0.14, 0.28, 0.42 for depths 1, 2, 3).
	sizes := []int{5000, 5000, 5000, 5000, 5000}
	for d := 1; d <= 3; d++ {
		got := RandomWalkAffinityDepth(sizes, d)
		want := float64(d) / 5
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("depth %d: %v, want ~%v", d, got, want)
		}
	}
}

func TestGroupByComments(t *testing.T) {
	users := []UserAffinity{
		{User: 1, Comments: 5, Affinity: 0.5},
		{User: 2, Comments: 5, Affinity: 0.7},
		{User: 3, Comments: 9, Affinity: 0.2},
	}
	groups := GroupByComments(users, 2)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1 (min samples filter)", len(groups))
	}
	g := groups[0]
	if g.Comments != 5 || g.N != 2 || math.Abs(g.Mean-0.6) > 1e-12 {
		t.Fatalf("group = %+v", g)
	}
	all := GroupByComments(users, 1)
	if len(all) != 2 || all[0].Comments != 5 || all[1].Comments != 9 {
		t.Fatalf("unfiltered groups = %+v", all)
	}
}

// synthesizeStrings builds category strings with a planted switching
// probability: with probability stay the next comment repeats the previous
// category, otherwise a uniformly random category is chosen.
func synthesizeStrings(r *rng.RNG, users, cats int, stay float64, minLen, maxLen int) map[int32][]int {
	out := make(map[int32][]int, users)
	for u := 0; u < users; u++ {
		n := minLen + r.Intn(maxLen-minLen+1)
		s := make([]int, n)
		s[0] = r.Intn(cats)
		for i := 1; i < n; i++ {
			if r.Bool(stay) {
				s[i] = s[i-1]
			} else {
				s[i] = r.Intn(cats)
			}
		}
		out[int32(u)] = s
	}
	return out
}

func TestAnalyzeRecoversPlantedAffinity(t *testing.T) {
	r := rng.New(99)
	const cats = 20
	const stay = 0.5
	strings := synthesizeStrings(r, 3000, cats, stay, 4, 30)
	sizes := make([]int, cats)
	for i := range sizes {
		sizes[i] = 100
	}
	a, err := Analyze(strings, sizes, []int{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Depth-1 expected affinity = stay + (1-stay)/cats.
	want := stay + (1-stay)/cats
	if math.Abs(a.OverallMean[0]-want) > 0.03 {
		t.Fatalf("depth-1 mean = %v, want ~%v", a.OverallMean[0], want)
	}
	// Affinity should exceed the random-walk baseline by a wide margin.
	if a.OverallMean[0] < 3*a.RandomWalk[0] {
		t.Fatalf("depth-1 mean %v not well above baseline %v", a.OverallMean[0], a.RandomWalk[0])
	}
	// Deeper levels increase both measured affinity and baseline.
	for d := 1; d < 3; d++ {
		if a.OverallMean[d] < a.OverallMean[d-1]-0.02 {
			t.Fatalf("mean affinity decreased with depth: %v", a.OverallMean)
		}
		if a.RandomWalk[d] <= a.RandomWalk[d-1] {
			t.Fatalf("baseline not increasing: %v", a.RandomWalk)
		}
	}
}

func TestAnalyzeRandomUsersMatchBaseline(t *testing.T) {
	// Users who wander uniformly should measure affinity ~ the random-walk
	// baseline.
	r := rng.New(123)
	const cats = 10
	strings := synthesizeStrings(r, 4000, cats, 0, 10, 20)
	sizes := make([]int, cats)
	for i := range sizes {
		sizes[i] = 500
	}
	a, err := Analyze(strings, sizes, []int{1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.OverallMean[0]-a.RandomWalk[0]) > 0.02 {
		t.Fatalf("random users measure %v, baseline %v", a.OverallMean[0], a.RandomWalk[0])
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	r := rng.New(7)
	strings := synthesizeStrings(r, 200, 5, 0.6, 3, 10)
	sizes := []int{10, 10, 10, 10, 10}
	a1, err := Analyze(strings, sizes, []int{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(strings, sizes, []int{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for d := range a1.Depths {
		if a1.OverallMean[d] != a2.OverallMean[d] || a1.Medians[d] != a2.Medians[d] {
			t.Fatal("Analyze is not deterministic")
		}
		if len(a1.PerUser[d]) != len(a2.PerUser[d]) {
			t.Fatal("per-user lists differ")
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, []int{1}, nil, 1); err == nil {
		t.Fatal("no depths accepted")
	}
	if _, err := Analyze(nil, []int{1}, []int{0}, 1); err == nil {
		t.Fatal("depth 0 accepted")
	}
}

func TestAnalysisCDF(t *testing.T) {
	r := rng.New(17)
	strings := synthesizeStrings(r, 500, 8, 0.7, 4, 12)
	sizes := []int{50, 50, 50, 50, 50, 50, 50, 50}
	a, err := Analyze(strings, sizes, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cdf := a.CDF(0)
	if cdf.Len() != len(a.PerUser[0]) {
		t.Fatalf("CDF over %d samples, want %d", cdf.Len(), len(a.PerUser[0]))
	}
	if cdf.At(1) != 1 {
		t.Fatal("CDF at affinity 1 should be 1")
	}
}

// compressAppString removes successive duplicates from a per-user app
// sequence, producing the paper's "app string": a1 a2 a3 a3 a1 a4 becomes
// a1 a2 a3 a1 a4. (The paper suppresses only successive repeats of the same
// app, not all repeats.)
func compressAppString[T comparable](seq []T) []T {
	out := make([]T, 0, len(seq))
	for i, v := range seq {
		if i > 0 && v == seq[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// categoryString maps an app string to its category string using the
// supplied app→category lookup.
func categoryString[T comparable, C comparable](apps []T, categoryOf func(T) C) []C {
	out := make([]C, len(apps))
	for i, a := range apps {
		out[i] = categoryOf(a)
	}
	return out
}

// randomWalkAffinity computes the exact probability that two independent
// uniformly random app choices fall in the same category (Eq. 2), given
// the per-category app counts: sum_i A(i)*(A(i)-1) / (A*(A-1)).
func randomWalkAffinity(categorySizes []int) float64 {
	var a float64
	for _, s := range categorySizes {
		a += float64(s)
	}
	if a < 2 {
		return 0
	}
	num := 0.0
	for _, s := range categorySizes {
		num += float64(s) * (float64(s) - 1)
	}
	return num / (a * (a - 1))
}

package snapshot

import (
	"math"
	"testing"
)

// makeSeries builds a 4-day series: 3 apps growing to 5, with one app
// updated twice and downloads accumulating.
func makeSeries(t *testing.T) *Series {
	t.Helper()
	s := &Series{Store: "test"}
	days := []*Day{
		{
			Index:               0,
			CumulativeDownloads: []int64{100, 50, 10},
			Versions:            []int{1, 1, 1},
			Price:               []float64{0, 1.99, 0},
		},
		{
			Index:               1,
			CumulativeDownloads: []int64{150, 70, 12, 5},
			Versions:            []int{1, 2, 1, 1},
			Price:               []float64{0, 1.99, 0, 0},
		},
		{
			Index:               2,
			CumulativeDownloads: []int64{210, 90, 15, 9},
			Versions:            []int{1, 2, 1, 1},
			Price:               []float64{0, 1.99, 0, 0},
		},
		{
			Index:               3,
			CumulativeDownloads: []int64{300, 120, 20, 15, 3},
			Versions:            []int{1, 3, 1, 1, 1},
			Price:               []float64{0, 2.49, 0, 0, 0},
		},
	}
	for _, d := range days {
		if err := s.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAppendValidation(t *testing.T) {
	s := &Series{Store: "x"}
	ok := &Day{Index: 0, CumulativeDownloads: []int64{1}, Versions: []int{1}, Price: []float64{0}}
	if err := s.Append(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&Day{Index: 2, CumulativeDownloads: []int64{1}, Versions: []int{1}, Price: []float64{0}}); err == nil {
		t.Fatal("gap in day index accepted")
	}
	if err := s.Append(&Day{Index: 1, CumulativeDownloads: nil, Versions: nil, Price: nil}); err == nil {
		t.Fatal("shrinking app count accepted")
	}
	if err := s.Append(&Day{Index: 1, CumulativeDownloads: []int64{1, 2}, Versions: []int{1}, Price: []float64{0, 0}}); err == nil {
		t.Fatal("inconsistent lengths accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := makeSeries(t)
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.AppsFirst != 3 || sum.AppsLast != 5 {
		t.Fatalf("apps: %d -> %d", sum.AppsFirst, sum.AppsLast)
	}
	if sum.Days != 4 {
		t.Fatalf("days = %d", sum.Days)
	}
	// (5-3)/3 days elapsed.
	if math.Abs(sum.NewAppsPerDay-2.0/3) > 1e-12 {
		t.Fatalf("new apps/day = %v", sum.NewAppsPerDay)
	}
	if sum.DownloadsFirst != 160 || sum.DownloadsLast != 458 {
		t.Fatalf("downloads: %d -> %d", sum.DownloadsFirst, sum.DownloadsLast)
	}
	if math.Abs(sum.DailyDownloads-(458-160)/3.0) > 1e-9 {
		t.Fatalf("daily downloads = %v", sum.DailyDownloads)
	}
}

func TestSummarizeShortSeries(t *testing.T) {
	s := &Series{Store: "x"}
	if _, err := s.Summarize(); err == nil {
		t.Fatal("empty series summarized")
	}
}

func TestUpdateCounts(t *testing.T) {
	s := makeSeries(t)
	counts := s.UpdateCounts()
	// Only the 3 apps present on day 0 are tracked; app 1 updated twice.
	want := []int{0, 2, 0}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestUpdateCountsTop(t *testing.T) {
	s := makeSeries(t)
	// Top 1/3 by final downloads = app 0 only (300 downloads), 0 updates.
	top := s.UpdateCountsTop(0.34)
	if len(top) != 1 || top[0] != 0 {
		t.Fatalf("top counts = %v", top)
	}
	if got := s.UpdateCountsTop(0); got != nil {
		t.Fatalf("zero fraction returned %v", got)
	}
}

func TestCurveAndTotals(t *testing.T) {
	s := makeSeries(t)
	c := s.Last().Curve()
	if c.Top() != 300 {
		t.Fatalf("top = %v", c.Top())
	}
	if c.Total() != 458 {
		t.Fatalf("total = %v", c.Total())
	}
	for i := 1; i < len(c.Downloads); i++ {
		if c.Downloads[i] > c.Downloads[i-1] {
			t.Fatal("curve not descending")
		}
	}
}

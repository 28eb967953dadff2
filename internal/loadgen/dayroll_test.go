package loadgen

import (
	"context"
	"errors"
	"testing"
	"time"

	"planetapps/internal/storeserver"
)

// TestDayRollScenario drives an open-loop run across a mid-load
// AdvanceDay and checks the report splits the measured window at the
// swap: both sides populated, counts adding up to the full window, and
// the roll metadata recorded.
func TestDayRollScenario(t *testing.T) {
	srv, ts := testStore(t, storeserver.Config{PageSize: 50})
	dayBefore := srv.Day()
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    OpenLoop,
		Stages: []Stage{
			{RPS: 400, Duration: 600 * time.Millisecond},
		},
		DayRollAfter: 200 * time.Millisecond,
		DayRollFn:    srv.AdvanceDay,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(100000, 500, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DayRoll == nil || !rep.DayRoll.Rolled {
		t.Fatalf("day roll not recorded: %+v", rep.DayRoll)
	}
	if srv.Day() != dayBefore+1 {
		t.Fatalf("store day %d, want %d", srv.Day(), dayBefore+1)
	}
	if rep.DayRoll.AtSec <= 0 || rep.DayRoll.Error != "" {
		t.Fatalf("bad roll metadata: %+v", rep.DayRoll)
	}
	det := rep.Classes[0]
	if det.Class != ClassDetail {
		t.Fatalf("first class = %q", det.Class)
	}
	if det.PreRollMS == nil || det.PostRollMS == nil {
		t.Fatalf("missing pre/post summaries: pre=%v post=%v", det.PreRollMS, det.PostRollMS)
	}
	if det.PreRollCount == 0 || det.PostRollCount == 0 {
		t.Fatalf("empty split: pre=%d post=%d", det.PreRollCount, det.PostRollCount)
	}
	// The split partitions the full measured window. Requests in flight
	// when the run ends can miss the full-window histogram too, so compare
	// the two histograms, not the request counter.
	full := g.classes[ClassDetail].latency.Snapshot().Count
	if det.PreRollCount+det.PostRollCount != full {
		t.Fatalf("pre %d + post %d != measured %d", det.PreRollCount, det.PostRollCount, full)
	}
	checkAccounting(t, rep)
}

// TestDayRollErrorReported surfaces a failing roll in the report rather
// than aborting the run.
func TestDayRollErrorReported(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50})
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    OpenLoop,
		Stages: []Stage{
			{RPS: 200, Duration: 300 * time.Millisecond},
		},
		DayRollAfter: 100 * time.Millisecond,
		DayRollFn:    func() error { return errors.New("period complete") },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(100000, 500, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DayRoll == nil || !rep.DayRoll.Rolled || rep.DayRoll.Error != "period complete" {
		t.Fatalf("roll error not reported: %+v", rep.DayRoll)
	}
}

// TestDayRollNeverFires: a run shorter than the roll offset reports
// Rolled=false and leaves no dangling goroutine (the roll timer is
// cancelled when Run returns).
func TestDayRollNeverFires(t *testing.T) {
	_, ts := testStore(t, storeserver.Config{PageSize: 50})
	g, err := New(Config{
		BaseURL: ts.URL,
		Mode:    OpenLoop,
		Stages: []Stage{
			{RPS: 200, Duration: 100 * time.Millisecond},
		},
		DayRollAfter: time.Hour,
		DayRollFn:    func() error { t.Error("roll fired"); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), newSliceSource(syntheticEvents(100000, 500, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DayRoll == nil || rep.DayRoll.Rolled {
		t.Fatalf("expected unfired roll in report, got %+v", rep.DayRoll)
	}
}

// TestDayRollValidation: DayRollAfter without a roll function is a config
// error.
func TestDayRollValidation(t *testing.T) {
	_, err := New(Config{
		BaseURL:      "http://127.0.0.1:0",
		Mode:         ClosedLoop,
		Users:        1,
		DayRollAfter: time.Second,
	})
	if err == nil {
		t.Fatal("DayRollAfter without DayRollFn accepted")
	}
}

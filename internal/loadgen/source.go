package loadgen

import (
	"context"
	"io"

	"planetapps/internal/model"
	"planetapps/internal/trace"
)

// Source yields the download events a Generator replays as HTTP traffic.
// Next returns io.EOF when the workload is exhausted. Implementations need
// not be safe for concurrent use; the Generator serializes access. A
// Source that holds a resource (a goroutine, a file) also implements
// io.Closer, and Generator.Run closes it on return.
type Source interface {
	Next() (model.Event, error)
}

// traceSource adapts a trace.Reader.
type traceSource struct {
	r *trace.Reader
}

// NewTraceSource replays a recorded binary trace.
func NewTraceSource(r *trace.Reader) Source { return &traceSource{r: r} }

func (s *traceSource) Next() (model.Event, error) { return s.r.Read() }

// modelSource synthesizes events live from a workload simulator, bridging
// the push-style Simulator.Stream into the pull-style Source through a
// bounded channel so generation overlaps replay without materializing the
// whole trace.
type modelSource struct {
	ch     <-chan model.Event
	cancel context.CancelFunc
}

// NewModelSource streams events from sim under ctx; canceling ctx or
// closing the source stops the generator goroutine. The source ends after
// the simulator's full workload (bound it with Config.MaxEvents if needed).
func NewModelSource(ctx context.Context, sim *model.Simulator, seed uint64) Source {
	ctx, cancel := context.WithCancel(ctx)
	// Deep enough that generation runs ahead of replay in batches instead
	// of handing over event by event.
	ch := make(chan model.Event, 1024)
	go func() {
		defer close(ch)
		sim.Stream(seed, func(e model.Event) bool {
			select {
			case ch <- e:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return &modelSource{ch: ch, cancel: cancel}
}

func (s *modelSource) Next() (model.Event, error) {
	e, ok := <-s.ch
	if !ok {
		return model.Event{}, io.EOF
	}
	return e, nil
}

// Close stops the generating goroutine and returns once it has exited
// (it closes ch on its way out); safe to call repeatedly.
func (s *modelSource) Close() error {
	s.cancel()
	for range s.ch {
	}
	return nil
}

package daemon

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDrainsInFlightRequests cancels the context while a request is
// being served: the request must complete, and Serve must not return
// before it has.
func TestServeDrainsInFlightRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained") //nolint:errcheck
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "test", addr, handler, 5*time.Second) }()

	body := make(chan string, 1)
	go func() {
		for i := 0; ; i++ {
			resp, err := http.Get("http://" + addr + "/")
			if err != nil {
				if i < 200 { // the listener may not be up yet
					time.Sleep(5 * time.Millisecond)
					continue
				}
				body <- "error: " + err.Error()
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body <- string(b)
			return
		}
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-body; got != "drained" {
		t.Fatalf("in-flight request got %q", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after a clean drain: %v", err)
	}
}

func TestServeReportsListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := Serve(context.Background(), "test", ln.Addr().String(), http.NotFoundHandler(), time.Second); err == nil {
		t.Fatal("Serve on an address already in use returned nil")
	}
}

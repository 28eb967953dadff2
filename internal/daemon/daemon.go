// Package daemon is the run loop the repo's HTTP daemons (appstored,
// edgecached, gatewayd) share: one listener with the same timeouts,
// stopped by SIGINT/SIGTERM, draining in-flight requests before exit.
package daemon

import (
	"context"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// SignalContext returns a context cancelled by the signals that mean
// "shut down": SIGINT and SIGTERM.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Serve serves handler on addr until ctx is cancelled, then stops
// accepting connections and gives in-flight requests up to drain to
// finish. It returns nil after a shutdown — complete or not, an
// incomplete drain is logged — and the listener's error if serving
// stopped for any other reason. name prefixes the log lines.
func Serve(ctx context.Context, name, addr string, handler http.Handler, drain time.Duration) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: shutting down, draining in-flight requests (max %v)", name, drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	<-served // http.ErrServerClosed, once Shutdown has begun
	return nil
}

package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// HTTP server timeouts.  The header deadline stops a client from holding
// a connection open by trickling header bytes; the idle deadline closes
// keep-alive connections nobody uses.  There is deliberately no write
// deadline: a ?wait=1 long poll holds its response for a whole job.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the service's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// serveMain runs the multi-tenant HTTP simulation service (`repro
// serve`): the experiment registry exposed as a REST API with a bounded
// job queue, a result-cache fast path and graceful drain on
// SIGINT/SIGTERM.  The listen address is announced on stderr (useful
// with -addr :0), and the process runs until ctx is cancelled.
func serveMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	maxQueue := fs.Int("max-queue", serve.DefaultMaxQueue, "job-queue capacity; a full queue rejects submissions with 429 + Retry-After")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline: in-flight jobs past it are canceled")
	allowTraces := fs.Bool("allow-trace-files", false, "accept configs naming a server-local tracefile (off by default: remote clients choosing local paths)")
	cache := addCacheFlags(fs)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	rc, closeCache := cache.open(stderr)
	defer closeCache()

	srv := serve.New(serve.Options{Cache: rc, MaxQueue: *maxQueue, AllowTraceFiles: *allowTraces})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "repro serve: %v\n", err)
		return 1
	}
	cacheDesc := "disabled"
	if rc != nil {
		cacheDesc = cache.dir
	}
	fmt.Fprintf(stderr, "repro serve: listening on http://%s (queue %d, cache %s)\n",
		ln.Addr(), *maxQueue, cacheDesc)

	hs := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "repro serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: reject new submissions immediately, give queued and running
	// jobs until the deadline, then cancel what is left.  The HTTP
	// server closes after the queue so long-polling clients see their
	// jobs' final states.
	fmt.Fprintf(stderr, "repro serve: draining (deadline %v)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "repro serve: drain deadline exceeded; in-flight jobs canceled")
	}
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	fmt.Fprintln(stderr, "repro serve: stopped")
	return 0
}

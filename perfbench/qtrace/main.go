// Command qtrace is qcoordd with a span recorder around the HTTP handler.
// It builds serve.NewServer from qcoordd's defaults (package servecfg), with
// or without -admission, and wraps ServeHTTP: every request carrying an
// X-Bench-Req header gets one span (request id, handler start and end on the
// monotonic clock, as Unix nanoseconds). Spans stay in memory; on SIGTERM or
// SIGINT the server drains like qcoordd and writes them as JSON to -spans-out.
//
// The benchmark uses the recorded handler starts as the arrival times when it
// replays a run's request sequence into the in-process layers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/perfbench/internal/servecfg"
)

// Span is one handled request as the server saw it.
type Span struct {
	ID      int64 `json:"id"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// recorder wraps a handler and keeps one span per tagged request.
type recorder struct {
	next  http.Handler
	epoch time.Time // monotonic anchor: spans read time.Since(epoch)
	mu    sync.Mutex
	spans []Span
}

func (rec *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get("X-Bench-Req")
	if tag == "" {
		rec.next.ServeHTTP(w, r)
		return
	}
	start := time.Since(rec.epoch)
	rec.next.ServeHTTP(w, r)
	end := time.Since(rec.epoch)
	id, err := strconv.ParseInt(tag, 10, 64)
	if err != nil {
		return
	}
	base := rec.epoch.UnixNano()
	rec.mu.Lock()
	rec.spans = append(rec.spans, Span{ID: id, StartNS: base + int64(start), EndNS: base + int64(end)})
	rec.mu.Unlock()
}

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	spansOut := flag.String("spans-out", "", "write the recorded spans as JSON to this path at shutdown")
	admissionOn := flag.Bool("admission", false, "enable admission control at qcoordd's default admission flags")
	flag.Parse()
	os.Exit(run(*addr, servecfg.Config(*admissionOn), servecfg.DrainTimeout, *spansOut))
}

func run(addr string, cfg serve.Config, drainTimeout time.Duration, spansOut string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.NewServer(cfg)
	rec := &recorder{next: srv, epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qtrace: listen: %v\n", err)
		return 1
	}
	fmt.Printf("qcoordd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: rec}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "qtrace: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	srv.StartDrain()
	left := srv.Drain(drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	_ = hs.Shutdown(shutdownCtx) // in-flight requests are already drained
	cancel()
	srv.StopSessions()

	if spansOut != "" {
		rec.mu.Lock()
		data, err := json.Marshal(rec.spans)
		rec.mu.Unlock()
		if err == nil {
			err = os.WriteFile(spansOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtrace: spans: %v\n", err)
			return 1
		}
	}
	if left != 0 {
		fmt.Fprintf(os.Stderr, "qtrace: %d decisions still in flight at drain deadline\n", left)
		return 1
	}
	return 0
}

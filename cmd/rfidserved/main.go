// Command rfidserved runs the HTTP estimation service (internal/serve):
//
//	rfidserved -addr 127.0.0.1:8080 -seed 1
//
// Endpoints: POST /v1/estimate, POST /v1/batch, POST /v1/monitor,
// GET /v1/metrics, GET /healthz (liveness), GET /readyz (readiness),
// and (unless -pprof=false) GET /debug/pprof/. With -addr :0 the kernel
// picks a port; the bound address is printed on stdout as the first
// line, so scripts can scrape it:
//
//	addr=$(rfidserved -addr 127.0.0.1:0 | head -1)
//
// With -state-dir the server is crash-safe: assigned salts and monitor
// warm state persist through a snapshot+WAL store, and a restart over
// the same directory resumes where the crash left off — acked monitor
// rounds are never lost and pinned-salt requests replay bit-identically.
// -chaos injects deterministic wire faults (resets, stalls, truncations,
// 503s) into /v1/ responses for resilience drills; probe paths are
// spared so orchestration keeps working during the drill.
//
// On SIGINT/SIGTERM the server drains: intake stops, in-flight sessions
// finish (every session is bounded in rounds), and after -drain-timeout
// the remaining sessions are cut at their next round boundary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfidest/internal/chaoshttp"
	"rfidest/internal/checkpoint"
	"rfidest/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		seed         = flag.Uint64("seed", 1, "server seed: roots assigned session salts and default batch salts")
		maxInFlight  = flag.Int("max-in-flight", 16, "max concurrently executing requests")
		queueDepth   = flag.Int("queue-depth", 64, "max requests waiting for a slot before 429s start")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request deadline, and the longest a request may set")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits before cutting sessions at a round boundary")
		enablePprof  = flag.Bool("pprof", true, "mount /debug/pprof/")
		quiet        = flag.Bool("quiet", false, "suppress the access log")
		stateDir     = flag.String("state-dir", "", "durable state directory (empty = in-memory only, no crash recovery)")
		chaos        = flag.Float64("chaos", 0, "server-side fault injection severity in [0,1] (0 = clean)")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "seed for the server-side fault schedule")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := serve.Config{
		Seed:           *seed,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		Now:            time.Now,
	}
	logEnc := json.NewEncoder(os.Stderr)
	if !*quiet {
		cfg.LogRequest = func(l serve.RequestLog) { logEnc.Encode(l) }
	}
	if *stateDir != "" {
		store, err := checkpoint.Open(*stateDir, checkpoint.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfidserved: %v\n", err)
			os.Exit(1)
		}
		defer store.Close()
		cfg.Checkpoint = store
	}
	// The server's estimation work roots in its own context, detached
	// from the signal context: a signal must stop intake and start the
	// drain, not instantly cut every in-flight session.
	s, err := serve.New(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidserved: %v\n", err)
		os.Exit(1)
	}

	handler := s.Handler()
	if *chaos > 0 {
		handler = chaoshttp.Middleware(*chaosSeed, chaoshttp.Severity(*chaos), handler)
	}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if *enablePprof {
		// Mounted here, not in the library: profiling is a process
		// decision, and net/http/pprof's side effects stay in main.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidserved: %v\n", err)
		os.Exit(1)
	}
	// First stdout line is the bound address — the contract scripts and
	// the load generator rely on when -addr ends in :0.
	fmt.Println(ln.Addr().String())

	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "rfidserved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "rfidserved: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rfidserved: drain cut short: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rfidserved: http shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rfidserved: stopped")
}

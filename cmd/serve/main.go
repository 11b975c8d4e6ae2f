// Command serve runs the deployment service: an HTTP API that accepts
// single deployments and full sweeps as asynchronous jobs, executes their
// runs on one shared run pool, streams per-run progress over SSE,
// caches results by config fingerprint, and persists every job through
// the sweep store so a restarted server resumes interrupted sweeps
// without re-running finished work.
//
// Usage:
//
//	serve -addr :8080 -data serve-data
//	serve -field warehouse.json        # register a custom scenario from a field spec
//	serve -log-format json -log-level debug
//	serve -debug-addr localhost:6060   # pprof + expvar on a separate listener
//
// The root path serves an embedded dashboard: live job list with
// progress/ETA, aggregate charts, per-run trace and layout views, and a
// metrics snapshot — open http://localhost:8080/ in a browser.
//
// API (see the README's Serving section for curl examples):
//
//	POST   /v1/runs                  submit one deployment
//	POST   /v1/sweeps                submit a sweep
//	GET    /v1/jobs                  list jobs
//	GET    /v1/jobs/{id}             status, progress, aggregates
//	DELETE /v1/jobs/{id}             cancel (finished runs stay on disk)
//	GET    /v1/jobs/{id}/events      SSE progress stream
//	GET    /v1/jobs/{id}/records     stored records (JSONL, ?format=csv)
//	GET    /v1/jobs/{id}/store/{f}   raw store files (report -watch remotely)
//	GET    /v1/schemes               scheme registry
//	GET    /v1/scenarios             scenario registry
//	GET    /v1/axes                  sweep axis registry
//	GET    /metrics                  Prometheus text (?format=json for expvar-style JSON)
//
// With -debug-addr, a second listener (keep it on localhost or behind a
// firewall) exposes net/http/pprof under /debug/pprof/ and expvar under
// /debug/vars for profiling a live server:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://localhost:6060/debug/pprof/heap
//	curl localhost:6060/debug/vars
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"mobisense"
	"mobisense/internal/metrics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, then serves until ctx is done
// (Ctrl-C). It returns the exit code: 0 on a clean shutdown or -h, 1 when
// the service fails, 2 on bad flags or a bad -field spec.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		dataDir   = fs.String("data", "serve-data", "server data directory (jobs, stores, cache source)")
		workers   = fs.Int("workers", 0, "most runs executing at once across all jobs: the size of the shared run pool (0 = GOMAXPROCS)")
		jobs      = fs.Int("jobs", 1, "how many jobs dispatch runs at once; a job stops counting once its last run is handed to a worker")
		jobsTTL   = fs.Duration("jobs-ttl", 0, "prune finished jobs (and their stores) older than this at startup and periodically (0 = keep forever)")
		cacheSize = fs.Int("cache-size", 0, "max entries in the fingerprint result cache, evicted LRU (0 = server default of 1024)")
		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this extra listener (e.g. localhost:6060); off when empty")
	)
	var fieldErr error
	fs.Func("field", "register a custom scenario from a field-spec JSON file (named by the spec's \"name\"); repeatable",
		func(path string) error {
			spec, err := mobisense.LoadFieldSpecFile(path)
			if err != nil {
				return err
			}
			if spec.Name == "" {
				return fmt.Errorf("field spec %s has no \"name\"; served scenarios are resolved by name", path)
			}
			// Registration panics on duplicates; surface that as a flag error.
			defer func() {
				if r := recover(); r != nil {
					fieldErr = fmt.Errorf("%v", r)
				}
			}()
			mobisense.RegisterScenario(mobisense.Scenario{
				Name:        spec.Name,
				Description: "custom field from " + path,
				Spec:        spec,
			})
			return nil
		})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fieldErr != nil {
		fmt.Fprintln(stderr, fieldErr)
		return 2
	}

	logger, err := buildLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	svc, err := mobisense.NewService(*dataDir, mobisense.ServiceOptions{
		Workers:   *workers,
		Jobs:      *jobs,
		CacheSize: *cacheSize,
		Logger:    logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *debugAddr != "" {
		// The profiling listener is separate from the API on purpose: the
		// imported net/http/pprof and expvar packages register only on
		// http.DefaultServeMux, which the API handler never serves, so
		// profiling endpoints are reachable exactly when -debug-addr is up.
		if expvar.Get("mobisense_metrics") == nil {
			expvar.Publish("mobisense_metrics", expvar.Func(func() any {
				return metrics.Default.Snapshot()
			}))
		}
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			svc.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		dbg := &http.Server{Handler: http.DefaultServeMux}
		defer dbg.Close()
		logger.Info("debug listener up", "addr", ln.Addr().String())
		go dbg.Serve(ln)
	}

	if *jobsTTL > 0 {
		// Re-sweep at a quarter of the TTL (clamped to [1min, 1h]) so
		// expired jobs linger at most ~25% past their deadline without a
		// timer storm for tiny TTLs. The startup sweep runs in the same
		// goroutine: deleting a backlog of expired stores must not delay
		// the listener.
		interval := min(max(*jobsTTL/4, time.Minute), time.Hour)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		go func() {
			for {
				if n := svc.GC(*jobsTTL); n > 0 {
					fmt.Fprintf(stderr, "pruned %d finished job(s) older than %s\n", n, *jobsTTL)
				}
				<-ticker.C
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		fmt.Fprintln(stderr, err)
		return 1
	}
	hs := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "serving deployment API on %s (data in %s)\n", ln.Addr(), *dataDir)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting requests, then cancel running
		// jobs — their finished runs persist and resume on the next start.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
		svc.Close()
		fmt.Fprintln(stderr, "shut down; interrupted jobs resume on the next start")
		return 0
	case err := <-errCh:
		svc.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
}

// buildLogger assembles the service's slog logger from the -log-format
// and -log-level flags; records go to w (stderr), keeping stdout clean
// for scripting.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

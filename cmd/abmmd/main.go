// Command abmmd serves matrix multiplication over HTTP: the serving
// layer of internal/server behind a flag surface and a graceful
// lifecycle. SIGTERM/SIGINT starts a drain — the listener refuses new
// multiplications with 503 while in-flight requests finish — and the
// final observability snapshot is flushed to stderr before exit.
// Request-scoped logs go to stderr as structured slog records (text or
// JSON), each carrying the request's trace ID when traced; completed
// traces are browsable at /debug/requests.
//
//	abmmd -addr :8080 -algs ours,strassen -max-in-flight 2 -log-format json
//
// See README.md ("Running as a service") for the wire format and the
// endpoint table.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"abmm"
	"abmm/internal/server"
	"abmm/internal/tune"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		algs         = flag.String("algs", "", "comma-separated catalog algorithms to serve (default: all)")
		workers      = flag.Int("workers", 0, "per-multiplication parallelism (0 = GOMAXPROCS)")
		maxInFlight  = flag.Int("max-in-flight", 0, "concurrent multiplications (0 = default 2)")
		maxQueued    = flag.Int("max-queued", 0, "admission queue length (0 = 4x max-in-flight)")
		queueTimeout = flag.Duration("queue-timeout", 0, "max wait for an execution slot (0 = 2s)")
		defTimeout   = flag.Duration("default-timeout", 0, "execution deadline when the request has none (0 = none)")
		maxElems     = flag.Int("max-elems", 0, "per-operand element cap (0 = 16Mi)")
		errSample    = flag.Int("error-sample", 0, "sample accuracy telemetry every Nth multiplication (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")
		logFormat    = flag.String("log-format", "text", "request log format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		traceSample  = flag.Int("trace-sample", 1, "trace every nth request (1 = all, negative = only client-initiated traces)")
		traceSlow    = flag.Duration("trace-slow", 0, "slow-ring threshold for /debug/requests (0 = 250ms)")
		traceRing    = flag.Int("trace-ring", 0, "per-bucket /debug/requests ring capacity (0 = 64)")
		sloLatency   = flag.Duration("slo-latency-p99", 0, "latency objective: requests slower than this burn the error budget (0 = no latency objective)")
		sloErrRatio  = flag.Float64("slo-error-ratio-max", 0, "numerical objective: sampled error beyond this multiple of the predicted bound burns the budget (0 = no error objective)")
		sloWindow    = flag.Duration("slo-window", 0, "long burn-rate window; short window is 1/12th of it (0 = 1m)")
		maxPlans     = flag.Int("max-plans", 0, "per-plan telemetry registry bound behind /debug/plans (0 = 64)")
		tuneProfile  = flag.String("tune-profile", "", "tuning profile JSON written by 'bench -tune'; profiled shapes boot pre-tuned")
		tuneBudget   = flag.Duration("tune-budget", 0, "online autotuning budget per unseen shape on plan-cache miss (0 = profile-only; the first request for an unseen shape pays this in latency)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abmmd: %v\n", err)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:          *workers,
		MaxInFlight:      *maxInFlight,
		MaxQueued:        *maxQueued,
		QueueTimeout:     *queueTimeout,
		DefaultTimeout:   *defTimeout,
		MaxElems:         *maxElems,
		ErrorSampleEvery: *errSample,
		Collector:        abmm.NewCollector(),
		Logger:           logger,
		TraceSample:      *traceSample,
		TraceSlow:        *traceSlow,
		TraceRing:        *traceRing,
		MaxPlans:         *maxPlans,
		SLO: abmm.SLOConfig{
			LatencyP99:    *sloLatency,
			ErrorRatioMax: *sloErrRatio,
			Window:        *sloWindow,
		},
	}
	if *algs != "" {
		for _, name := range strings.Split(*algs, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.Algorithms = append(cfg.Algorithms, name)
			}
		}
	}
	// Autotuning is opt-in: a tuner is attached only when a profile or
	// an online budget was asked for. A bad profile file never stops the
	// server — it is logged and the process serves untuned (the tuner
	// answers "no opinion" for every shape the file would have covered).
	if *tuneProfile != "" || *tuneBudget > 0 {
		tn := tune.New(tune.Config{Budget: *tuneBudget, Logger: logger})
		if *tuneProfile != "" {
			if err := tn.LoadFile(*tuneProfile); err != nil {
				logger.Warn("tuning profile unusable; serving untuned", "path", *tuneProfile, "error", err)
			} else {
				logger.Info("tuning profile loaded", "path", *tuneProfile)
			}
		}
		cfg.Tuner = tn
	}
	abmm.PublishStats("abmm", cfg.Collector)

	srv, err := server.Serve(*addr, cfg)
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	logger.Info("serving", "addr", srv.Addr(), "algorithms", strings.Join(cfg.Algorithms, ","))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately

	logger.Info("draining", "timeout", (*drainTimeout).String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Warn("drain incomplete", "error", err)
		srv.Close()
	}
	fmt.Fprintln(os.Stderr, srv.Collector().Snapshot().Report())
	logger.Info("bye")
}

// buildLogger assembles the stderr slog.Logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

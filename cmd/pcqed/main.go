// Command pcqed is the policy-compliant query daemon: one shared PCQE
// engine served over HTTP/JSON to many concurrent sessions. Each
// session authenticates to a ⟨user, purpose⟩ pair at handshake; the
// applicable confidence policy's β then filters every query the
// session runs, queries pin one MVCC snapshot each, and improvement
// proposals are offered and applied per session.
//
// Usage:
//
//	pcqed -table Name=file.csv [-table ...] \
//	      -role user=role [-role ...] \
//	      -policy role:purpose:beta [-policy ...] \
//	      [-listen 127.0.0.1:8633] [-journal audit.jsonl] \
//	      [-max-sessions 64] [-worker-pool 8] [-drain-timeout 5s] \
//	      [-debug-listen 127.0.0.1:6060]
//
// The daemon prints "pcqed listening on http://ADDR" once bound (use
// -listen 127.0.0.1:0 plus -addr-file for scripted clients) and drains
// gracefully on SIGTERM/SIGINT: it stops accepting sessions and
// queries, finishes in-flight requests under -drain-timeout, flushes
// the audit journal, and exits 0.
//
// -debug-listen ADDR opens the operator listener: GET /metrics serves
// the metrics registry as Prometheus text (plus runtime goroutine, heap
// and GC-cycle gauges) and /debug/pprof/ serves net/http/pprof. It is
// bound before the main listener is announced — a taken address fails
// startup — and its bound address is printed as "pcqed operator
// listener on http://ADDR", so port 0 works for scripts. Its counters
// are fleet-wide (every session's withheld rows among them): keep it
// off analyst networks.
//
// Protocol sketch (see DESIGN.md §12 for the full contract):
//
//	POST   /v1/session  {"user":"sue","purpose":"analysis"}  → {"token":...}
//	POST   /v1/query    {"query":"SELECT ...","min_fraction":0.5}
//	POST   /v1/explain  {"query":"SELECT ..."}
//	POST   /v1/apply    {"proposal_id":"p1"}
//	GET    /v1/audit?limit=20
//	DELETE /v1/session
//	GET    /v1/healthz
//
// All but the handshake and healthz require "Authorization: Bearer
// <token>".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/ on the operator listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/policy"
	"pcqe/internal/relation"
	"pcqe/internal/server"
	"pcqe/internal/sql"
	"pcqe/internal/strategy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pcqed:", err)
		os.Exit(1)
	}
}

func run() error {
	var tables, roles, policies []string
	flag.Func("table", "Name=file.csv (repeatable)", func(v string) error { tables = append(tables, v); return nil })
	flag.Func("role", "user=role assignment (repeatable)", func(v string) error { roles = append(roles, v); return nil })
	flag.Func("policy", "role:purpose:beta confidence policy (repeatable)", func(v string) error { policies = append(policies, v); return nil })
	execScript := flag.String("exec", "", "SQL script file to execute at startup (CREATE TABLE / INSERT ... WITH CONFIDENCE / ...)")
	listen := flag.String("listen", "127.0.0.1:8633", "address to serve on (use port 0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripted clients with -listen ...:0)")
	journal := flag.String("journal", "", "flush the audit journal to this JSONL file on drain")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrently open sessions")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "maximum concurrent requests per session")
	workerPool := flag.Int("worker-pool", server.DefaultWorkerPool, "maximum concurrently evaluating requests server-wide; beyond it requests get 503 + Retry-After")
	defaultTimeout := flag.Duration("default-timeout", 0, "per-request wall-clock default when the client sets none (0 = no limit)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling on per-request wall-clock budgets, including 'unlimited' requests (0 = no ceiling)")
	maxNodes := flag.Int("max-nodes", 0, "ceiling on per-request solver node budgets (0 = no ceiling)")
	maxPivots := flag.Int("max-pivots", 0, "ceiling on per-request Shannon-pivot budgets (0 = no ceiling)")
	maxSteps := flag.Int("max-steps", 0, "ceiling on per-request δ-grid step budgets (0 = no ceiling)")
	drainTimeout := flag.Duration("drain-timeout", server.DefaultDrainTimeout, "how long a SIGTERM drain waits for in-flight requests")
	allowUnpolicied := flag.Bool("allow-unpolicied", false, "admit sessions no confidence policy covers (every row released); off by default")
	debugListen := flag.String("debug-listen", "", "operator listener address serving /metrics (Prometheus text) and /debug/pprof/ (use port 0 for an ephemeral port; keep it off analyst networks)")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q; pcqed takes queries over HTTP, not argv", flag.Args())
	}

	cat := relation.NewCatalog()
	for _, spec := range tables {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -table %q, want Name=file.csv", spec)
		}
		n, err := relation.LoadCSVFile(cat, name, file)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d rows\n", name, n)
	}
	if *execScript != "" {
		script, err := os.ReadFile(*execScript)
		if err != nil {
			return err
		}
		results, err := sql.ExecScript(cat, string(script))
		for _, r := range results {
			fmt.Fprintln(os.Stderr, r.Message)
		}
		if err != nil {
			return err
		}
	}

	store, err := policy.NewStoreFromSpecs(policies, roles)
	if err != nil {
		return err
	}

	engine := core.NewEngine(cat, store, nil)
	engine.SetAudit(&core.AuditLog{})
	metrics := obs.New()
	engine.SetMetrics(metrics)

	srv := server.New(engine, server.Config{
		MaxSessions:     *maxSessions,
		MaxInFlight:     *maxInFlight,
		WorkerPool:      *workerPool,
		DefaultBudget:   strategy.Budget{Timeout: *defaultTimeout},
		MaxBudget:       strategy.Budget{Timeout: *maxTimeout, MaxNodes: *maxNodes, MaxPivots: *maxPivots, MaxSteps: *maxSteps},
		DrainTimeout:    *drainTimeout,
		JournalPath:     *journal,
		AllowUnpolicied: *allowUnpolicied,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if *debugListen != "" {
		opsLn, err := net.Listen("tcp", *debugListen)
		if err != nil {
			ln.Close()
			return fmt.Errorf("operator listener: %w", err)
		}
		// DefaultServeMux already carries net/http/pprof's handlers.
		http.Handle("/metrics", metrics)
		opsServer := &http.Server{ReadHeaderTimeout: 10 * time.Second}
		defer opsServer.Close()
		go func() {
			if err := opsServer.Serve(opsLn); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "pcqed: operator listener:", err)
			}
		}()
		fmt.Printf("pcqed operator listener on http://%s\n", opsLn.Addr())
	}
	// Catch signals before the address is published: a scripted client
	// may open its sessions and send SIGTERM within a millisecond of
	// reading the file, and an unhandled SIGTERM kills without draining.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(addr+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Printf("pcqed listening on http://%s\n", addr)

	httpServer := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() {
		if err := httpServer.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()

	// Drain: refuse new sessions and queries, finish in-flight requests
	// under the drain deadline, flush the audit journal — then close the
	// listener and connections. Drain errors (deadline expired, journal
	// flush failure) are reported but the HTTP teardown still runs.
	fmt.Println("pcqed draining")
	drainErr := srv.Drain(context.Background())
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	<-errCh
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("pcqed drained cleanly")
	return nil
}

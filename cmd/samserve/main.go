// Command samserve runs the SAM program service: an HTTP/JSON API over a
// compiled-program cache and an admission-controlled job queue, so compiled
// dataflow graphs are reused across requests the way the paper treats them —
// as hardware programs that stream many tensors.
//
// Usage:
//
//	samserve                          # listen on :8345 with defaults
//	samserve -addr 127.0.0.1:9000 -workers 8 -queue 256 -cache 512
//	samserve -artifacts /var/cache/sam    # persistent on-disk program cache
//	samserve -pprof -logrequests          # profiling endpoints + access log
//
// Endpoints (see the README's Serving and Observability sections for a curl
// walkthrough):
//
//	POST /v1/evaluate        synchronous evaluation (?trace=1 for a span breakdown)
//	POST /v1/jobs            asynchronous submission; returns a job id
//	GET  /v1/jobs/{id}       job status and result
//	PUT  /v1/tensors/{name}  upload a named operand (COO wire format; -tensorbudget caps residency)
//	GET  /v1/tensors/{name}  stored-tensor metadata (?data=1 includes the tensor)
//	DEL  /v1/tensors/{name}  remove a stored tensor (in-flight jobs keep their pinned copy)
//	GET  /v1/stats           cache, queue, tensor-store, cycle, and latency counters
//	GET  /metrics            Prometheus text exposition of the same counters
//	GET  /debug/pprof/       net/http/pprof profiles (only with -pprof)
//
// Router mode (-route) turns the same binary into the scale-out front of a
// shard fleet: requests are consistent-hash routed by canonical program key
// (tensors by name), shards failing /readyz probes are ejected from the
// ring until they recover, GET /v1/stats aggregates the fleet (percentiles
// from merged histogram buckets), GET /metrics relabels every shard's
// scrape with shard="sN", and -tilethreshold splits oversized tensor
// uploads into per-shard row-block tiles:
//
//	samserve -addr :8345 &                                # shard 0
//	samserve -addr :8346 &                                # shard 1
//	samserve -addr :8000 -route http://127.0.0.1:8345,http://127.0.0.1:8346
//
// On SIGINT/SIGTERM the server stops accepting work (new requests get 503),
// finishes every queued and running job, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sam/internal/opt"
	"sam/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// realMain runs the server against explicit streams and a stop signal so
// the smoke tests can drive it in-process. It prints the bound address on
// one line ("samserve: listening on ...") before serving, which also lets
// tests bind port 0.
func realMain(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("samserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8345", "listen address")
	workers := fs.Int("workers", 4, "job queue worker pool size")
	queueDepth := fs.Int("queue", 64, "admission queue depth (submissions beyond it get 429)")
	cacheSize := fs.Int("cache", 128, "compiled-program LRU capacity")
	optLevel := fs.Int("O", 0, "default graph-optimization level for requests that omit schedule.opt")
	maxBody := fs.Int64("maxbody", 8<<20, "request body size limit in bytes (oversized payloads get 413)")
	tensorBudget := fs.Int64("tensorbudget", 256<<20, "named tensor store budget in bytes (LRU eviction beyond it)")
	artifacts := fs.String("artifacts", "", "persistent program-artifact cache directory (empty disables the disk cache)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logReqs := fs.Bool("logrequests", false, "log one structured line per request to stderr")
	warm := fs.String("warm", "", "semicolon-separated expressions to pre-compile; /readyz reports 503 until they are cached")
	route := fs.String("route", "", "run as a router over this comma-separated shard URL list instead of serving locally")
	probeEvery := fs.Duration("probeinterval", 500*time.Millisecond, "router: how often to probe each shard's /readyz")
	tileThreshold := fs.Int64("tilethreshold", 0, "router: split inline tensor uploads larger than this many bytes into per-shard tiles (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *route != "" {
		return routerMain(fs, *route, *addr, *probeEvery, *tileThreshold, *maxBody, *logReqs, stdout, stderr, stop)
	}
	for _, f := range []string{"probeinterval", "tilethreshold"} {
		if flagSet(fs, f) {
			fmt.Fprintf(stderr, "samserve: -%s only applies in router mode (-route)\n", f)
			return 2
		}
	}
	if *workers < 1 || *queueDepth < 1 || *cacheSize < 1 {
		fmt.Fprintln(stderr, "samserve: -workers, -queue and -cache must be positive")
		return 2
	}
	if *optLevel < 0 || *optLevel > opt.MaxLevel {
		fmt.Fprintf(stderr, "samserve: unknown -O level %d (the optimizer knows levels 0..%d)\n", *optLevel, opt.MaxLevel)
		return 2
	}
	if *maxBody < 1 {
		fmt.Fprintln(stderr, "samserve: -maxbody must be positive")
		return 2
	}
	if *tensorBudget < 1 {
		fmt.Fprintln(stderr, "samserve: -tensorbudget must be positive")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "samserve:", err)
		return 1
	}
	cfg := serve.Config{
		Workers: *workers, QueueDepth: *queueDepth, CacheSize: *cacheSize,
		DefaultOpt: *optLevel, MaxBodyBytes: *maxBody,
		TensorBudgetBytes: *tensorBudget,
		ArtifactDir:       *artifacts, EnablePprof: *pprofOn,
		WarmupExprs: splitList(*warm, ";"),
	}
	if *logReqs {
		cfg.AccessLog = stderr
	}
	s := serve.NewServer(cfg)
	httpSrv := &http.Server{Handler: s}
	fmt.Fprintf(stdout, "samserve: listening on http://%s (workers=%d queue=%d cache=%d opt=%d)\n",
		ln.Addr(), *workers, *queueDepth, *cacheSize, *optLevel)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "samserve:", err)
		return 1
	case <-stop:
	}
	fmt.Fprintln(stdout, "samserve: draining...")
	// Finish in-flight jobs first (new submissions already get 503), then
	// close idle HTTP connections.
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "samserve: shutdown:", err)
		return 1
	}
	fmt.Fprintln(stdout, "samserve: drained, bye")
	return 0
}

// routerMain runs the binary as the consistent-hash front of a shard
// fleet. Flags that size a local server (worker pool, caches, budgets) are
// rejected here — the router holds no programs and no tensors of its own,
// only the ring, the probe loop, and the tile registry.
func routerMain(fs *flag.FlagSet, route, addr string, probeEvery time.Duration, tileThreshold, maxBody int64, logReqs bool, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	for _, f := range []string{"workers", "queue", "cache", "O", "tensorbudget", "artifacts", "pprof", "warm"} {
		if flagSet(fs, f) {
			fmt.Fprintf(stderr, "samserve: -%s only applies to a shard, not the router (-route)\n", f)
			return 2
		}
	}
	if probeEvery <= 0 {
		fmt.Fprintln(stderr, "samserve: -probeinterval must be positive")
		return 2
	}
	if tileThreshold < 0 {
		fmt.Fprintln(stderr, "samserve: -tilethreshold must be >= 0")
		return 2
	}
	if maxBody < 1 {
		fmt.Fprintln(stderr, "samserve: -maxbody must be positive")
		return 2
	}
	cfg := serve.RouterConfig{
		Shards:             splitList(route, ","),
		ProbeInterval:      probeEvery,
		TileThresholdBytes: tileThreshold,
		MaxBodyBytes:       maxBody,
	}
	if logReqs {
		cfg.AccessLog = stderr
	}
	rt, err := serve.NewRouter(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "samserve:", err)
		return 2
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "samserve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: rt}
	fmt.Fprintf(stdout, "samserve: routing on http://%s (shards=%d probe=%s tilethreshold=%d)\n",
		ln.Addr(), len(cfg.Shards), probeEvery, tileThreshold)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "samserve:", err)
		return 1
	case <-stop:
	}
	fmt.Fprintln(stdout, "samserve: router stopping...")
	rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "samserve: shutdown:", err)
		return 1
	}
	fmt.Fprintln(stdout, "samserve: router stopped, bye")
	return 0
}

// flagSet reports whether a flag was set explicitly on the command line.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// splitList splits a separated flag value, trimming blanks.
func splitList(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

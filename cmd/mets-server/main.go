// Command mets-server serves the sharded hybrid index over the wire
// protocol: pipelined TCP connections, each served by one goroutine that
// commits a burst of pipelined writes with one durability barrier, and MVCC
// snapshot reads. With -dir every shard journals its writes (internal/wal),
// concurrent connections' barriers share each journal's fsync, and a restart
// replays them. A debug HTTP endpoint exposes /metrics (Prometheus
// text format), /debug/vars, and /healthz.
//
// Usage:
//
//	mets-server -addr :7070 -dir /tmp/mets -debug-addr 127.0.0.1:7071
//
// The engine is the sharded index (internal/sharded) over 8 uniform shards.
// -engine names it; sharded is the only one, and any other value is refused.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, close every
// connection and wait for its goroutine (a commit in flight completes first),
// close the engine, print "clean shutdown".
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mets/internal/hybrid"
	"mets/internal/obs"
	"mets/internal/server"
	"mets/internal/sharded"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "listen address for the wire protocol")
		debugAddr = flag.String("debug-addr", "", "debug HTTP address (/metrics, /debug/vars, /healthz); empty disables")
		engine    = flag.String("engine", "sharded", "storage engine (sharded is the only one)")
		dir       = flag.String("dir", "", "durability directory (empty = in-memory, no journals)")
		maxConns  = flag.Int("max-conns", 1024, "max concurrent connections")
	)
	flag.Parse()

	reg := obs.NewRegistry()

	store, err := buildStore(*engine, *dir, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mets-server:", err)
		os.Exit(1)
	}

	srv, err := server.New(server.Config{Store: store, Obs: reg, MaxConns: *maxConns})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mets-server:", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		startDebug(*debugAddr, reg, srv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		fmt.Printf("mets-server: engine=%s dir=%q listening on %s\n", *engine, *dir, *addr)
		done <- srv.ListenAndServe(*addr)
	}()

	select {
	case s := <-sig:
		fmt.Printf("mets-server: %v, shutting down\n", s)
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "mets-server:", err)
			os.Exit(1)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mets-server: close:", err)
		os.Exit(1)
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mets-server: engine close:", err)
		os.Exit(1)
	}
	fmt.Println("clean shutdown")
}

// buildStore constructs the sharded engine.
func buildStore(engine, dir string, reg *obs.Registry) (server.Store, error) {
	if engine != "sharded" {
		return nil, fmt.Errorf("unknown engine %q (sharded is the only engine)", engine)
	}
	cfg := sharded.Config{
		Shards: 8,
		Hybrid: hybrid.DefaultConfig(),
		Obs:    reg,
		Dir:    dir,
	}
	return server.NewShardedStore(sharded.New(cfg)), nil
}

// startDebug serves /metrics (Prometheus), /debug/vars (expvar incl. the
// full registry snapshot under "mets", the document STATS answers with), and
// /healthz (server.Healthz: 200 when the engine accepts writes, 503
// otherwise).
func startDebug(addr string, reg *obs.Registry, srv *server.Server) {
	expvar.Publish("mets", expvar.Func(func() any { return reg.Snapshot() }))
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", srv.Healthz)
	hs := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "mets-server: debug endpoint:", err)
		}
	}()
}

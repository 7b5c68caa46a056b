package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"conman/internal/experiments"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
	"conman/internal/obs"
)

// defaultDaemonAddr is where `conman daemon` listens and `conman
// doctor` probes unless -addr overrides it.
const defaultDaemonAddr = "127.0.0.1:8347"

// serveUntilSignal serves h on addr: it listens, starts serving, calls
// ready with the bound address (the caller announces itself there, or
// does work the server should be up for), then blocks until SIGINT or
// SIGTERM and shuts the server down. It returns early with ready's or
// the server's error.
func serveUntilSignal(addr string, h http.Handler, ready func(net.Addr) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	defer srv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if err := ready(ln.Addr()); err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case <-ctx.Done():
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		_ = srv.Shutdown(shutCtx)
		return nil
	case err := <-serveErr:
		return err
	}
}

// runDaemon brings up the shared-core demo (two VLAN-tunnel VPN
// intents over the diamond) under the autonomous reconciliation
// daemon and serves its observability surface over HTTP until
// SIGINT/SIGTERM. The /chaos endpoints inject and repair wire faults
// so the healing loop can be exercised from the outside (the CI smoke
// job does exactly that).
func runDaemon(_ string, args []string) error {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	addr := fs.String("addr", defaultDaemonAddr, "HTTP listen address for /status and /metrics")
	poll := fs.Duration("poll", 0, "periodic audit interval (0 disables polling; events alone drive reconciliation)")
	stateDir := fs.String("state-dir", "", "persist the intent store (snapshot + journal) in this directory and restore it on startup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, pairs, err := experiments.BuildDiamondShared(2)
	if err != nil {
		return err
	}
	defer tb.Close()
	if *stateDir != "" {
		lock, err := datastore.LockDir(*stateDir)
		if err != nil {
			return err
		}
		defer lock.Close()
		backend, err := datastore.NewFileBackend(*stateDir)
		if err != nil {
			return err
		}
		restored, err := tb.NM.Persist(backend)
		if err != nil {
			return err
		}
		fmt.Printf("conman daemon: restored %d intents from %s\n", restored, *stateDir)
	}
	for _, p := range pairs {
		err := tb.NM.Submit(p.Intent("VLAN tunnel"))
		var dup *nm.DuplicateIntentError
		if errors.As(err, &dup) {
			continue // already restored from the state directory
		}
		if err != nil {
			return err
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	d, stop := tb.StartDaemon(nm.DaemonConfig{Poll: *poll, Logger: logger})
	defer stop()

	mux := obs.NewMux(func() any { return d.Status() }, d.Metrics())
	mux.HandleFunc("/chaos/kill-wire", chaosWire(tb, false))
	mux.HandleFunc("/chaos/restore-wire", chaosWire(tb, true))

	err = serveUntilSignal(*addr, mux, func(at net.Addr) error {
		fmt.Printf("conman daemon: listening on http://%s (/status /metrics /chaos/kill-wire?wire=W)\n", at)
		wires := tb.Net.Media()
		sort.Strings(wires)
		fmt.Printf("conman daemon: wires: %s\n", strings.Join(wires, " "))
		return nil
	})
	if err != nil {
		return err
	}
	stop() // quiesce the reconciler before snapshotting
	if *stateDir != "" {
		if err := tb.NM.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "conman daemon: checkpoint on shutdown: %v\n", err)
		} else {
			fmt.Printf("conman daemon: state checkpointed to %s\n", *stateDir)
		}
	}
	fmt.Println("conman daemon: shut down")
	return nil
}

// chaosWire builds the fault-injection handler: POST
// /chaos/kill-wire?wire=A-B1 cuts a wire, /chaos/restore-wire brings
// it back. The daemon is not told — it must notice via the carrier
// topology re-reports, exactly like a real failure.
func chaosWire(tb *experiments.Testbed, up bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("wire")
		if name == "" {
			http.Error(w, "missing ?wire=<name> (see startup log for wire names)", http.StatusBadRequest)
			return
		}
		if _, ok := tb.Net.Medium(name); !ok {
			http.Error(w, fmt.Sprintf("unknown wire %q", name), http.StatusNotFound)
			return
		}
		if err := tb.Net.SetMediumUp(name, up); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"wire\":%q,\"up\":%v}\n", name, up)
	}
}

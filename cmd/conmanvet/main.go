// Command conmanvet is the repo's static-analysis suite: a vet-style
// driver for the one module-invariant contract no test can see.
//
// It runs a single analyzer, lockcheck (see docs/analysis.md): fields
// commented `guarded by mu` are only touched under that mutex, and
// nothing blocks while a lock is held — a rule the race detector cannot
// test.
//
// Run it either way:
//
//	go vet -vettool=$(which conmanvet) ./...   # standard vettool protocol
//	conmanvet ./...                            # self-hosting shortcut
//
// The second form re-execs `go vet -vettool=<self>` so the go build
// system supplies type information and caching; there is no separate
// loader to keep in sync.
package main

import (
	"conman/internal/analysis"
	"conman/internal/analysis/lockcheck"
)

func main() {
	analysis.Main(lockcheck.Analyzer)
}

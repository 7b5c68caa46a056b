package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
)

// TestStoreFailureConflict pins the CLI contract for intent conflicts:
// a (possibly wrapped) ConflictError from reconcile must exit with a
// distinct non-zero code and name both colliding intents on stderr —
// not vanish into the generic failure path.
func TestStoreFailureConflict(t *testing.T) {
	ce := &nm.ConflictError{
		Device:  "A",
		Module:  core.Ref(core.NameIPv4, "A", "g"),
		IntentA: "vpn-c1", IntentB: "vpn-c2",
	}
	code, lines := failure("reconcile", fmt.Errorf("store apply: %w", ce))
	if code != 3 {
		t.Errorf("conflict exit code = %d, want 3", code)
	}
	out := strings.Join(lines, "\n")
	for _, want := range []string{`"vpn-c1"`, `"vpn-c2"`, "conman reconcile", "withdraw"} {
		if !strings.Contains(out, want) {
			t.Errorf("conflict report missing %q:\n%s", want, out)
		}
	}
}

// TestStoreFailureGeneric: any other error keeps the plain exit-1 path.
func TestStoreFailureGeneric(t *testing.T) {
	code, lines := failure("withdraw", fmt.Errorf("no intent %q registered", "x"))
	if code != 1 {
		t.Errorf("generic exit code = %d, want 1", code)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "conman withdraw") {
		t.Errorf("generic report = %q", lines)
	}
}

// TestCommandsTable: the commands table is the only copy of the command
// set, so help must be complete by construction — every entry unique,
// documented and listed — and must say where the benchmark went.
func TestCommandsTable(t *testing.T) {
	var help bytes.Buffer
	if code := conman([]string{"help"}, &help); code != 0 {
		t.Errorf("conman help exit code = %d, want 0", code)
	}
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("command %q listed twice", c.name)
		}
		seen[c.name] = true
		if strings.TrimSpace(c.usage) == "" || c.run == nil {
			t.Errorf("command %q has no usage text or no run func", c.name)
		}
		if !strings.Contains(help.String(), "\n  "+c.name) {
			t.Errorf("conman help does not list %q", c.name)
		}
	}
	pointer := 0
	for _, line := range strings.Split(help.String(), "\n") {
		if strings.Contains(line, "bench/README.md") {
			pointer++
		}
	}
	if pointer != 1 {
		t.Errorf("conman help has %d lines pointing at bench/README.md, want 1:\n%s", pointer, help.String())
	}
}

// TestUnknownCommand: anything outside the table — including the retired
// `bench` — prints usage and exits non-zero without running anything.
func TestUnknownCommand(t *testing.T) {
	for _, name := range []string{"bench", "no-such-command"} {
		var stderr bytes.Buffer
		if code := conman([]string{name}, &stderr); code == 0 {
			t.Errorf("conman %s exit code = 0, want non-zero", name)
		}
		if !strings.Contains(stderr.String(), fmt.Sprintf("unknown command %q", name)) ||
			!strings.Contains(stderr.String(), "usage: conman") {
			t.Errorf("conman %s stderr lacks the unknown-command line or usage:\n%s", name, stderr.String())
		}
	}
	if code := conman(nil, &bytes.Buffer{}); code != 2 {
		t.Errorf("conman with no arguments exit code = %d, want 2", code)
	}
}

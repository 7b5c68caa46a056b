package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"conman/internal/experiments"
	"conman/internal/nm/datastore"
)

// runStore drives the intent-store demo: two customer VPNs crossing the
// same diamond of switches (shared edge and transit devices), managed
// through Submit / Withdraw / Reconcile.
func runStore(cmd string, args []string) error {
	dryRun, names := dryRunFlag(args)
	if cmd == "withdraw" && len(names) != 1 {
		usage(os.Stderr)
		return fmt.Errorf("withdraw needs exactly one intent name (vpn-c1 or vpn-c2)")
	}
	if cmd != "withdraw" && len(names) != 0 {
		usage(os.Stderr)
		return fmt.Errorf("%s takes no arguments", cmd)
	}
	tb, pairs, err := experiments.BuildDiamondShared(2)
	if err != nil {
		return err
	}
	defer tb.Close()
	for _, p := range pairs {
		if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
			return err
		}
	}

	if cmd == "withdraw" {
		known := false
		for _, in := range tb.NM.Registered() {
			if in.Name == names[0] {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("no intent %q registered (want vpn-c1 or vpn-c2)", names[0])
		}
		if _, err := tb.NM.Reconcile(); err != nil {
			return err
		}
		fmt.Println("reconciled both intents over the shared core")
		if err := tb.NM.Withdraw(names[0]); err != nil {
			return err
		}
	}
	plan, err := tb.NM.PlanStore()
	if err != nil {
		return err
	}
	fmt.Print(plan.Render())
	switch {
	case cmd == "submit":
		fmt.Println("dry run: submitting only records desired state; run 'conman reconcile' to configure")
		return nil
	case dryRun && cmd == "withdraw":
		fmt.Println("dry run: withdrawal not executed")
		return nil
	case dryRun:
		fmt.Println("dry run: no commands sent")
		return nil
	}
	if err := tb.NM.Apply(plan); err != nil {
		return err
	}

	if cmd == "withdraw" {
		fmt.Printf("withdrawn %q: %d delete batches executed, shared components kept\n", names[0], len(plan.Deletes))
		for _, p := range pairs {
			name := p.Intent("VLAN tunnel").Name
			if name == names[0] {
				continue
			}
			if err := tb.VerifyPair(p, 5353); err != nil {
				return fmt.Errorf("surviving intent %q broken by withdrawal: %w", name, err)
			}
			fmt.Printf("surviving intent %q still delivers\n", name)
		}
		return nil
	}
	c := tb.NM.Counters()
	fmt.Printf("reconciled: %d messages sent, %d received\n", c.Sent(), c.Received())
	for i, p := range pairs {
		if err := tb.VerifyPair(p, uint32(4242+100*i)); err != nil {
			return fmt.Errorf("data-plane verification (pair %d): %w", p.Index, err)
		}
	}
	fmt.Println("data plane verified: both customer pairs deliver over the shared core")
	again, err := tb.NM.Reconcile()
	if err != nil {
		return err
	}
	if !again.Empty() {
		return fmt.Errorf("re-reconcile not empty:\n%s", again.Render())
	}
	fmt.Printf("re-reconcile: no changes (%d components in place, %d shared) — reconcile is idempotent\n",
		again.InPlace, again.Shared)
	return nil
}

// runStoreAdmin operates offline on a daemon's -state-dir: `log` prints
// the journal, `show` replays the registered intents as of a sequence
// number, `rollback` appends a rollback record rewinding the intent set
// (history is kept — the rollback is itself a journal entry the next
// daemon start replays). All three take the state dir's exclusive lock,
// so they fail fast while a daemon is live instead of racing its
// journal writer.
func runStoreAdmin(_ string, args []string) error {
	if len(args) < 1 {
		usage(os.Stderr)
		return fmt.Errorf("store needs a subcommand (log, show or rollback)")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("store "+sub, flag.ContinueOnError)
	dir := fs.String("state-dir", "", "daemon state directory (snapshot + journal)")
	to := fs.Uint64("to", 0, "journal sequence number (show: replay up to it; rollback: rewind to it)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store %s needs -state-dir", sub)
	}
	// Exclude a live daemon (and other admin invocations): a second
	// journal writer would hand out colliding sequence numbers, and a
	// running daemon would never apply an offline rollback anyway.
	lock, err := datastore.LockDir(*dir)
	if err != nil {
		return err
	}
	defer lock.Close()
	backend, err := datastore.NewFileBackend(*dir)
	if err != nil {
		return err
	}
	log, st, err := datastore.Open(backend)
	if err != nil {
		return err
	}
	defer log.Close()

	switch sub {
	case "log":
		all, err := backend.Entries()
		if err != nil {
			return err
		}
		fmt.Printf("state %s: %d journal entries, snapshot at seq %d, last seq %d\n",
			*dir, len(all), st.SnapshotSeq, st.LastSeq)
		for _, e := range all {
			line := fmt.Sprintf("  seq %4d  %s  %-11s", e.Seq, time.Unix(e.TimeUnix, 0).Format(time.RFC3339), e.Op)
			if e.Name != "" {
				line += " " + e.Name
			}
			switch e.Op {
			case datastore.OpApplyBegin:
				var devs []string
				if json.Unmarshal(e.Data, &devs) == nil {
					line += " devices=" + strings.Join(devs, ",")
				}
			case datastore.OpRollback:
				line += fmt.Sprintf(" to=%d", e.To)
			}
			fmt.Println(line)
			if e.Seq == st.SnapshotSeq {
				fmt.Println("  ---- snapshot ----")
			}
		}
		return nil

	case "show":
		var recs []datastore.IntentRecord
		if *to != 0 {
			recs, err = intentsAsOf(backend, *to)
			if err != nil {
				return err
			}
			fmt.Printf("intents as of seq %d:\n", *to)
		} else {
			base, err := datastore.SnapshotIntents(st.Snapshot)
			if err != nil {
				return err
			}
			recs, err = datastore.ReplayIntents(base, st.Entries, 0)
			if err != nil {
				return err
			}
			fmt.Printf("intents as of seq %d:\n", st.LastSeq)
		}
		if len(recs) == 0 {
			fmt.Println("  (none)")
		}
		for _, r := range recs {
			fmt.Printf("  %-12s %s\n", r.Name, compactJSON(r.Data))
		}
		return nil

	case "rollback":
		if *to == 0 {
			return fmt.Errorf("store rollback needs -to SEQ (see 'store log')")
		}
		if *to >= st.LastSeq {
			return fmt.Errorf("-to %d is not in the past (last seq %d)", *to, st.LastSeq)
		}
		recs, err := intentsAsOf(backend, *to)
		if err != nil {
			return err
		}
		e, err := log.Append(datastore.OpRollback, "", recs, *to)
		if err != nil {
			return err
		}
		fmt.Printf("rolled back to seq %d (rollback recorded as seq %d); intent set now:\n", *to, e.Seq)
		if len(recs) == 0 {
			fmt.Println("  (none)")
		}
		for _, r := range recs {
			fmt.Printf("  %s\n", r.Name)
		}
		fmt.Println("restart the daemon (same -state-dir) to reconcile the network to this set")
		return nil
	}
	usage(os.Stderr)
	return fmt.Errorf("unknown store subcommand %q (want log, show or rollback)", sub)
}

// intentsAsOf is the historic view: the full retained journal replayed
// from empty up to seq.
func intentsAsOf(backend *datastore.FileBackend, seq uint64) ([]datastore.IntentRecord, error) {
	all, err := backend.Entries()
	if err != nil {
		return nil, err
	}
	return datastore.ReplayIntents(nil, all, seq)
}

// compactJSON renders a raw JSON payload on one line, truncated for
// listing.
func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	s := buf.String()
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}

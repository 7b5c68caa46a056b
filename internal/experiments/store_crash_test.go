package experiments

// Crash-point oracle for the persistent intent store.
// The invariant, checked mechanically rather than argued: whatever call
// into the backend is the last one to succeed, an NM restored from what
// the backend then holds registers exactly the acknowledged operations,
// plans like an NM that never crashed, and gets the network there
// without sending one command the never-crashed NM would not have sent.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
)

var errCrashed = errors.New("backend crashed")

// crashBackend lets the first limit writes (journal appends and snapshot
// writes alike) through and fails every one after: a process that died
// right after its limit-th durable write.
type crashBackend struct {
	datastore.Backend
	writes, limit int
}

func (b *crashBackend) admit() error {
	if b.writes >= b.limit {
		return errCrashed
	}
	b.writes++
	return nil
}

func (b *crashBackend) Append(e datastore.Entry) error {
	if err := b.admit(); err != nil {
		return err
	}
	return b.Backend.Append(e)
}

func (b *crashBackend) WriteSnapshot(seq uint64, data []byte) error {
	if err := b.admit(); err != nil {
		return err
	}
	return b.Backend.WriteSnapshot(seq, data)
}

// storeOp is one step of the seeded sequence.
type storeOp struct {
	kind   string // submit, update, withdraw, reconcile, checkpoint
	intent nm.Intent
}

func (op storeOp) run(n *nm.NM) error {
	switch op.kind {
	case "submit":
		return n.Submit(op.intent)
	case "update":
		return n.Update(op.intent)
	case "withdraw":
		return n.Withdraw(op.intent.Name)
	case "reconcile":
		_, err := n.Reconcile()
		return err
	default:
		return n.Checkpoint()
	}
}

// liteIntentOn is customer j's intent classified on another customer
// port: what an update moves it to, so its edge rules are replaced.
func liteIntentOn(j, port int) nm.Intent {
	in := LiteIntent(j)
	in.Goal.FromPipe = LiteIntent(port).Goal.FromPipe
	in.Goal.ToPipe = LiteIntent(port).Goal.ToPipe
	return in
}

// crashOps draws a sequence of count valid store operations over k lite
// customers on a testbed with 2k ports. An update moves the customer
// between its own port and its spare one (k+j), replacing its edge rules.
func crashOps(rng *rand.Rand, k, count int) []storeOp {
	live := map[int]bool{}
	spare := map[int]bool{}
	var ops []storeOp
	for len(ops) < count {
		j := 1 + rng.Intn(k)
		switch r := rng.Intn(10); {
		case r < 4 && !live[j]:
			live[j], spare[j] = true, false
			ops = append(ops, storeOp{"submit", LiteIntent(j)})
		case r < 4 && len(live) > 1:
			delete(live, j)
			ops = append(ops, storeOp{"withdraw", LiteIntent(j)})
		case r < 6 && live[j]:
			port := j
			if spare[j] = !spare[j]; spare[j] {
				port = k + j
			}
			ops = append(ops, storeOp{"update", liteIntentOn(j, port)})
		case r < 9:
			ops = append(ops, storeOp{kind: "reconcile"})
		case r == 9:
			ops = append(ops, storeOp{kind: "checkpoint"})
		}
	}
	return ops
}

// batchesSent is every command batch the NMs sent, as a sorted multiset
// of "device (n items)": what "no spurious command" is judged against.
// (What the devices then execute is not comparable run to run: the
// order of a VLAN handshake and a switch's own port commands depends on
// message timing.)
func batchesSent(nms ...*nm.NM) string {
	var out []string
	for _, n := range nms {
		for _, line := range n.MessageLog() {
			if _, batch, ok := strings.Cut(line, "command batch -> "); ok {
				out = append(out, batch)
			}
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// restoreOnto replaces the testbed's NM with a fresh one restored from
// the backend and converges it.
func restoreOnto(t *testing.T, tb *Testbed, b datastore.Backend) *nm.NM {
	t.Helper()
	tb.Hub.Detach(msg.NMName)
	n := nm.New()
	n.EnableMessageLog()
	n.AttachChannel(tb.Hub.Endpoint(msg.NMName))
	if _, err := n.Persist(b); err != nil {
		t.Fatal(err)
	}
	tb.NM = n
	settle(t, tb)
	return n
}

func TestStoreRestoresIdenticallyAtEveryCrashPoint(t *testing.T) {
	const k, count = 8, 64
	ops := crashOps(rand.New(rand.NewSource(23)), k, count)

	// run executes the sequence until the backend refuses a write and
	// returns the number of acknowledged operations. The NM's knowledge of
	// the devices is checkpointed first (limit counts writes after that):
	// a restored NM learns the topology from its snapshot, not from the
	// devices re-announcing themselves.
	run := func(limit int) (tb *Testbed, mem *datastore.MemBackend, acked int) {
		tb, err := BuildDiamondLite(2 * k)
		if err != nil {
			t.Fatal(err)
		}
		tb.NM.EnableMessageLog()
		mem = datastore.NewMemBackend()
		cb := &crashBackend{Backend: mem, limit: 1}
		if _, err := tb.NM.Persist(cb); err != nil {
			t.Fatal(err)
		}
		if err := tb.NM.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cb.writes, cb.limit = 0, limit
		for _, op := range ops {
			if err := op.run(tb.NM); err != nil {
				if !errors.Is(err, errCrashed) {
					t.Fatalf("limit %d: %s %q: %v", limit, op.kind, op.intent.Name, err)
				}
				break
			}
			acked++
		}
		return tb, mem, acked
	}

	full, _, acked := run(1 << 30)
	if acked != count {
		t.Fatalf("uncrashed run acknowledged %d of %d operations", acked, count)
	}
	js := full.NM.JournalStatus()
	total := int(js.Entries+js.Snapshots) - 1 // all writes but the priming checkpoint
	full.Close()
	// Every operation but a reconcile writes at least once; a reconcile
	// writes only when it has something to apply.
	writers := 0
	for _, op := range ops {
		if op.kind != "reconcile" {
			writers++
		}
	}
	if total < writers {
		t.Fatalf("uncrashed run made %d backend writes for %d operations that each write", total, writers)
	}

	t.Logf("%d operations, %d backend writes: cutting after each", count, total)
	for limit := 0; limit <= total; limit++ {
		tb, mem, acked := run(limit)
		crashed := tb.NM
		restored := restoreOnto(t, tb, mem)

		// The oracle: an NM that never crashed and never persisted,
		// given the acknowledged prefix (a checkpoint does not change the
		// store) and then converged.
		ref, err := BuildDiamondLite(2 * k)
		if err != nil {
			t.Fatal(err)
		}
		ref.NM.EnableMessageLog()
		for _, op := range ops[:acked] {
			if op.kind == "checkpoint" {
				continue
			}
			if err := op.run(ref.NM); err != nil {
				t.Fatalf("limit %d: reference %s %q: %v", limit, op.kind, op.intent.Name, err)
			}
		}
		settle(t, ref)

		tag := fmt.Sprintf("crash after write %d of %d (%d operations acknowledged)", limit, total, acked)
		if got, want := restored.Registered(), ref.NM.Registered(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored store registers\n%+v\nwant\n%+v", tag, got, want)
		}
		got, err := restored.PlanStore()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.NM.PlanStore()
		if err != nil {
			t.Fatal(err)
		}
		// Compared as a set of lines: which position a view takes after a
		// withdraw and resubmit inside one reconcile window is ordering
		// bookkeeping, pinned against a rebuilt store by
		// TestFullRematchAgreesWithDelta, not a property of recovery.
		if sortedLines(got.Render()) != sortedLines(want.Render()) {
			t.Fatalf("%s: restored store plans\n%s\nwant\n%s", tag, got.Render(), want.Render())
		}
		if got, want := batchesSent(crashed, restored), batchesSent(ref.NM); got != want {
			t.Fatalf("%s: crashed and restored NM together sent batches\n%s\nthe never-crashed NM\n%s", tag, got, want)
		}
		tb.Close()
		ref.Close()
	}
}

// Command conman drives the CONMan reproduction: the declarative
// intent lifecycle on the paper's evaluation testbeds, the multi-intent
// store on a shared-core demo topology, the autonomous daemon with its
// chaos and transport harnesses, and regeneration of every table and
// figure of §III. `conman help` prints the command set; the commands
// table below is its only copy. Scale and performance are measured by
// the separate benchmark module in bench/ (see bench/README.md).
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"conman/internal/experiments"
	"conman/internal/nm"
)

// command is one CLI subcommand. The commands table is the whole
// command set: conman dispatches from it and usage prints it.
type command struct {
	name string
	// group is the usage heading the command is listed under; usage
	// prints it whenever it changes from the previous entry.
	group string
	// usage is the command's help block, printed verbatim.
	usage string
	run   func(name string, args []string) error
}

const (
	groupIntent = "intent lifecycle (declarative API) on a scenario —\n" +
		"gre, mpls (Fig 4 routed testbed) or vlan (Fig 9 switched)"
	groupStore     = "intent store (multi-goal reconciliation, shared-core diamond demo)"
	groupDaemon    = "autonomous operation"
	groupStoreDir  = "persistent store (offline, operates on -state-dir)"
	groupArtifacts = "paper artifacts (several may be named in one invocation)"
)

// commands is filled in by init rather than by a composite literal: the
// run functions print usage on bad arguments, which reads the table.
var commands []command

func init() {
	commands = []command{
		{"plan", groupIntent, `  plan <scenario>             compute and print the reconciliation plan
                              (dry run; no commands are sent)`, runIntent},
		{"apply", groupIntent, `  apply [-dry-run] <scenario> reconcile the testbed toward the intent,
                              verify the data plane, prove idempotency
                              (-dry-run stops after printing the plan)`, runIntent},
		{"destroy", groupIntent, `  destroy [-dry-run] <scenario>
                              apply, then tear the intent back down and
                              prove the path is gone (-dry-run prints
                              the teardown plan without executing it)`, runIntent},

		{"submit", groupStore, `  submit                      register both demo VPN intents in the
                              store and print the store-wide plan
                              (dry run; submitting sends nothing)`, runStore},
		{"reconcile", groupStore, `  reconcile [-dry-run]        submit both intents and reconcile the
                              network to their union: shared transit
                              state is configured once, both customer
                              pairs are verified, and a second
                              reconcile proves zero commands
                              (-dry-run stops after printing the plan)`, runStore},
		{"withdraw", groupStore, `  withdraw [-dry-run] <name>  reconcile both intents, withdraw <name>
                              (vpn-c1 or vpn-c2), reconcile again, and
                              prove only its unshared components were
                              removed — the surviving VPN still
                              delivers (-dry-run prints the withdrawal
                              plan without executing it)`, runStore},

		{"daemon", groupDaemon, `  daemon [-addr HOST:PORT] [-poll DUR] [-state-dir DIR]
                              run the shared-core demo under the
                              autonomous reconciliation daemon: submit
                              both VPN intents, converge, and keep
                              healing faults with no operator. Serves
                              GET /status and /metrics plus fault
                              injection (POST /chaos/kill-wire?wire=W,
                              /chaos/restore-wire?wire=W). -poll adds a
                              periodic audit pass on top of the event
                              push path (default: pure push).
                              -state-dir persists the intent store
                              (snapshot + journal) there and restores
                              it on startup, so a restarted daemon
                              converges without re-observing devices
                              that did not change`, runDaemon},
		{"doctor", groupDaemon, `  doctor [-addr HOST:PORT]    snapshot a running daemon's /status,
                              pretty-print intent health (including
                              observation-cache hit rate and journal
                              counters), and exit non-zero when it is
                              unhealthy`, runDoctor},
		{"chaos", groupDaemon, `  chaos [-topo FAMILY] [-n N] [-pairs K] [-seed S]
        [-wires W] [-devices D] [-pipes P] [-addr HOST:PORT]
                              build a generated fabric (fattree, ring,
                              torus or waxman) carrying K VLAN intents
                              under the daemon, inject W wire cuts, D
                              device kills and P pipe deletions
                              concurrently (seeded, min-cut-guarded),
                              and require autonomous re-convergence
                              with delivery verified. With -addr the
                              process serves /status and /metrics and
                              stays up after the episode so doctor can
                              inspect the healed state`, runChaos},
		{"transport", groupDaemon, `  transport [-n N] [-loss P] [-reorder P] [-dup P] [-jitter DUR]
            [-seed S] [-flush DUR] [-addr HOST:PORT]
                              configure a linear GRE+IGP chain of N
                              routers over real UDP sockets with seeded
                              loss/reorder/duplication/jitter injected
                              below the transport's reliability layer,
                              verify end-to-end delivery, and print the
                              batching/retransmission accounting. With
                              -addr the process stays up serving /status
                              and /metrics (the CI transport-smoke tier)`, runTransport},

		{"store", groupStoreDir, `  store log -state-dir DIR    print the journal: every submit/update/
                              withdraw/rollback and the apply-begin
                              before each apply, with sequence numbers
                              and the snapshot position
  store show -state-dir DIR [-to SEQ]
                              replay snapshot + journal and print the
                              registered intents (as of SEQ, when given)
  store rollback -state-dir DIR -to SEQ
                              rewind the intent set to sequence SEQ by
                              appending a rollback record (history is
                              kept); the next daemon start reconciles
                              the network to the rewound set`, runStoreAdmin},

		{"table3", groupArtifacts, "  table3   GRE module abstraction (Table III)",
			artifact("Table III — abstraction exposed by the GRE module", table3)},
		{"table4", groupArtifacts, "  table4   device A module inventory (Table IV)",
			artifact("Table IV — connectivity and switching of device A's modules", experiments.Table4)},
		{"table5", groupArtifacts, "  table5   generic/specific commands & state variables (Table V)",
			artifact("Table V — commands and state variables: today (T) vs CONMan (C)", table5)},
		{"table6", groupArtifacts, "  table6   NM message counts vs path length (Table VI)",
			artifact("Table VI — NM messages over the management channel", table6)},
		{"fig3", groupArtifacts, "  fig3     GRE establishment message sequence (Fig 3)",
			artifact("Fig 3 — GRE-IP tunnel establishment message sequence", fig3)},
		{"fig5", groupArtifacts, "  fig5     potential-connectivity sub-graph of device A (Fig 5)",
			artifact("Fig 5 — potential connectivity sub-graph for device A", fig5)},
		{"fig7", groupArtifacts, "  fig7     GRE VPN: today vs CONMan (Fig 7)",
			artifact("Fig 7 — VPN via GRE-IP tunnel", comparison(experiments.Fig7))},
		{"fig8", groupArtifacts, "  fig8     MPLS VPN: today vs CONMan (Fig 8)",
			artifact("Fig 8 — VPN via MPLS LSP", comparison(experiments.Fig8))},
		{"fig9", groupArtifacts, "  fig9     VLAN tunnel: today vs CONMan (Fig 9)",
			artifact("Fig 9 — VPN via VLAN tunneling", comparison(experiments.Fig9Run))},
		{"paths", groupArtifacts, "  paths    path enumeration between <ETH,A,a> and <ETH,C,f> (§III-C.1)",
			artifact("§III-C.1 — paths between <ETH,A,a> and <ETH,C,f>", paths)},
		{"all", groupArtifacts, "  all      every paper artifact above", allArtifacts},
	}
}

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func main() {
	os.Exit(conman(os.Args[1:], os.Stderr))
}

// conman runs one invocation and returns its exit status; usage and
// failures go to stderr.
func conman(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, args := args[0], args[1:]
	switch name {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	c := lookup(name)
	if c == nil {
		usage(stderr)
		fmt.Fprintf(stderr, "conman: unknown command %q\n", name)
		return 1
	}
	err := c.run(name, args)
	if err == nil {
		return 0
	}
	code, lines := failure(name, err)
	for _, line := range lines {
		fmt.Fprintln(stderr, line)
	}
	return code
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: conman <command>...")
	group := ""
	for _, c := range commands {
		if c.group != group {
			group = c.group
			fmt.Fprintf(w, "\n%s:\n", group)
		}
		fmt.Fprintln(w, c.usage)
	}
	fmt.Fprintln(w, "\nscale and performance: the benchmark is its own module, see bench/README.md")
}

// exitStatus is the error of a command that has already reported its
// outcome and only needs the process to exit with this status.
type exitStatus int

func (e exitStatus) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

// failure maps a command's error to its exit code and stderr lines. A
// typed ConflictError — two intents classifying the same traffic to
// different targets — gets a distinct exit code and an actionable line
// naming both intents, instead of disappearing into a generic failure.
func failure(cmd string, err error) (code int, lines []string) {
	var status exitStatus
	if errors.As(err, &status) {
		return int(status), nil
	}
	lines = []string{fmt.Sprintf("conman %s: %v", cmd, err)}
	var ce *nm.ConflictError
	if !errors.As(err, &ce) {
		return 1, lines
	}
	lines = append(lines,
		fmt.Sprintf("conflicting intents: %q and %q (switch rules collide at %s)", ce.IntentA, ce.IntentB, ce.Module),
		"resolution: withdraw one of them (conman withdraw <name>) or change its goal")
	return 3, lines
}

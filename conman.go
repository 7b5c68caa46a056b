// Package conman is a from-scratch Go reproduction of Ballani & Francis,
// "CONMan: A Step towards Network Manageability" (SIGCOMM 2007): a
// network architecture in which data-plane protocols expose a generic,
// protocol-agnostic management interface (the module abstraction), and a
// Network Manager configures entire networks by creating pipes and switch
// rules while the protocol implementations themselves derive every
// low-level parameter by talking to their peers over the management
// channel.
//
// The repository contains:
//
//   - the CONMan model and primitives (internal/core, internal/msg)
//   - three management-channel transports (internal/channel): in-process,
//     real UDP sockets, and a self-bootstrapping raw-Ethernet flood
//   - a byte-level simulated substrate (internal/netsim, internal/packet,
//     internal/kernel): Ethernet with ARP, IPv4 policy routing, GRE
//     tunnels, MPLS label switching, 802.1Q/QinQ bridging
//   - protocol modules wrapping that substrate (internal/modules)
//   - the Network Manager (internal/nm): topology discovery, potential
//     graph, path finder with encapsulation/domain pruning, compiler to
//     CONMan scripts, chain executor, and the declarative Intent API
//   - "configuration today" scripts and the Table V metric
//     (internal/legacy)
//   - every table and figure of the paper's evaluation
//     (internal/experiments), regenerable via cmd/conman
//
// # The Intent API
//
// The NM's public surface is declarative, mirroring the paper's model of
// a manager that holds high-level goals and (re)derives configuration
// from them (§II, §IV). An Intent names a connectivity Goal plus
// tradeoffs; the lifecycle is:
//
//	plan, err := nm.Plan(intent)   // diff desired vs observed state
//	fmt.Print(plan.Render())       // dry run: every pending command
//	err = nm.Apply(plan)           // reconcile: delete stale, create missing
//	_, err = nm.Destroy(intent)    // tear the configuration back down
//
// Plan compiles the intent's chosen path into per-device scripts, reads
// the actual state of every device on the path (showActual) and keeps
// only the difference: missing pipes and switch rules become create
// batches, stale components (from an earlier intent, or a pipe whose
// endpoints changed) become delete batches via the delete() primitive.
// A per-intent plan owns every device it touches: whatever it observes
// there and does not want is stale, and Destroy clears those devices.
// Planning sends no configuration commands, so a Plan doubles as a dry
// run. Apply is idempotent — after a successful Apply, a fresh Plan for
// the same intent is empty and re-applying it sends zero commands. The
// same loop heals partial failure (kill a pipe: the next Plan recreates
// it and its dependent rules) and expresses A->B->A reconfiguration
// between path flavours (GRE <-> MPLS), which the previous one-shot
// DiscoverAll/FindPaths/Compile/Execute chain could not. Compile and
// Execute remain available as the underlying engine.
//
// # The intent store
//
// The intent store is the second entry point to the same diff engine —
// the paper's "NM holds all the goals" model, for goals that share
// devices:
//
//	err = nm.Submit(intentA)       // register goals; sends nothing
//	err = nm.Submit(intentB)
//	plan, err := nm.PlanStore()    // dry run of the union of all goals
//	splan, err := nm.Reconcile()   // reconcile the network to the union
//	err = nm.Withdraw("intent-a")  // unregister; next Reconcile prunes
//
// Reconcile compiles every registered intent, merges the desired
// configuration per device — pipes and switch rules are deduplicated by
// content and refcounted across goals — and diffs the union against
// observed state in a single sweep. Components shared between goals
// (two VPNs crossing the same transit switches) are configured once and
// survive until their last owner is withdrawn; withdrawing one goal
// removes exactly its unshared components. Reconcile is idempotent:
// reconciling again immediately sends zero commands. See
// examples/multi-intent and `conman submit|reconcile|withdraw`.
//
// # Concurrency
//
// The NM fans work out across devices: DiscoverAll and Plan's state
// observation query all devices on a bounded worker pool, and Apply
// groups batches into per-device chains — batches on distinct devices
// run concurrently, while a device appearing more than once keeps its
// batches in order. Module peering is unaffected because the initiator
// rule keys on module references, not arrival order, so the message
// Counters (Table VI) are byte-identical to sequential execution. Two
// knobs control this:
//
//   - NM.Sequential: set true to restore strict one-device-at-a-time
//     operation (the paper's original accounting mode, and a fallback
//     for channels that cannot carry concurrent traffic).
//   - NM.Workers: bounds the concurrent fan-out; zero selects
//     nm.DefaultWorkers (16).
//
// Both are read without locking and must be set before the first
// DiscoverAll/Plan/Apply call. The whole stack (channel hub, device MAs,
// protocol modules, kernels, netsim) is safe under `go test -race` with
// concurrent NM calls; netsim.Network.Flush provides a quiescence
// barrier for concurrent data-plane probes. For experiments,
// Hub.SetLatency emulates a real management network's propagation
// delay, and the linear testbeds can run their management plane over
// real UDP sockets (experiments.EndpointFactory). The NM message log
// records per-stream sequence numbers and merges them canonically, so
// Fig 3-style traces are byte-reproducible under the concurrent
// executor.
//
// This facade re-exports the types most users need; see the examples/
// directory for runnable scenarios.
package conman

import (
	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/experiments"
	"conman/internal/nm"
	"conman/internal/topo"
)

// Core model types.
type (
	// DeviceID is a globally unique device identifier.
	DeviceID = core.DeviceID
	// ModuleRef is the <module name, module-id, device-id> tuple.
	ModuleRef = core.ModuleRef
	// Abstraction is the generic module self-description (Table II).
	Abstraction = core.Abstraction
	// ModuleState is the showActual view of a module.
	ModuleState = core.ModuleState
	// PipeID identifies a pipe.
	PipeID = core.PipeID
	// SwitchRule directs packet switching between two pipes.
	SwitchRule = core.SwitchRule
	// FilterRule is an abstract filter specification.
	FilterRule = core.FilterRule
	// DeleteRequest identifies a component for NM.Delete.
	DeleteRequest = core.DeleteRequest
)

// Component kinds for DeleteRequest.
const (
	ComponentPipe       = core.ComponentPipe
	ComponentSwitchRule = core.ComponentSwitchRule
)

// Ref constructs a ModuleRef.
func Ref(name core.ModuleName, dev DeviceID, mod core.ModuleID) ModuleRef {
	return core.Ref(name, dev, mod)
}

// Well-known module names.
const (
	NameETH  = core.NameETH
	NameIPv4 = core.NameIPv4
	NameGRE  = core.NameGRE
	NameMPLS = core.NameMPLS
	NameVLAN = core.NameVLAN
	NameIGP  = core.NameIGP
)

// Manager types.
type (
	// NM is the CONMan network manager.
	NM = nm.NM
	// Intent is a declarative connectivity intent (desired state).
	Intent = nm.Intent
	// Plan is the reconciliation diff computed by NM.Plan.
	Plan = nm.Plan
	// StorePlan is the store-wide reconciliation diff computed by
	// NM.PlanStore over every registered intent.
	StorePlan = nm.StorePlan
	// IntentView is one intent's slice of a StorePlan.
	IntentView = nm.IntentView
	// Goal is a high-level connectivity goal.
	Goal = nm.Goal
	// Path is a protocol-sane module-level path.
	Path = nm.Path
	// Graph is the potential-connectivity graph.
	Graph = nm.Graph
	// DeviceScript is a compiled per-device command batch.
	DeviceScript = nm.DeviceScript
	// Counters is the NM's Table VI message accounting.
	Counters = nm.Counters
	// FindSpec describes a path search (endpoints, traffic domain,
	// preferred flavour, engine selection).
	FindSpec = nm.FindSpec
	// PruneStats counts why the path search abandoned branches and how
	// many states it expanded.
	PruneStats = nm.PruneStats
	// ConflictError reports two registered intents whose rules classify
	// the same traffic to different targets (returned by Reconcile).
	ConflictError = nm.ConflictError
	// Daemon is the autonomous reconciliation loop: it subscribes to
	// the NM's event feed (notifies, §II-E dependency triggers,
	// topology re-reports), debounces them into a dirty set, and drives
	// Reconcile until the network converges — failures heal with no
	// caller.
	Daemon = nm.Daemon
	// DaemonConfig tunes the daemon's optional audit polling, logging
	// and metrics. Zero values select defaults.
	DaemonConfig = nm.DaemonConfig
	// DaemonStatus is the daemon's health snapshot (the /status
	// document).
	DaemonStatus = nm.DaemonStatus
)

// Testbed is a fully built simulated environment (network, devices,
// management channel, NM).
type Testbed = experiments.Testbed

// SharedPair is one customer pair of a shared-core testbed, with its
// ready-made connectivity goal (customer edge ports pinned).
type SharedPair = experiments.SharedPair

// NewNM creates a network manager.
func NewNM() *NM { return nm.New() }

// NewDaemon builds an autonomous reconciliation daemon over an NM.
// Call Run to start the control loop (Testbed.StartDaemon wraps both).
func NewDaemon(n *NM, cfg DaemonConfig) *Daemon { return nm.NewDaemon(n, cfg) }

// NewHub creates an in-process management channel.
func NewHub() *channel.Hub { return channel.NewHub() }

// BuildGraph constructs the NM's potential-connectivity graph from
// discovered topology and abstractions.
func BuildGraph(n *NM) (*Graph, error) { return nm.BuildGraph(n) }

// SelectPath applies the paper's path selector (minimise pipes, prefer
// fast forwarding).
func SelectPath(paths []*Path) *Path { return nm.SelectPath(paths) }

// FindBest runs the goal-directed best-first path search: the single
// best path under the paper's selection metric (or the best of the
// spec's preferred flavour) without materialising the variant space.
// spec.Exhaustive reroutes through the legacy enumerator for A/B runs.
func FindBest(g *Graph, spec FindSpec) (*Path, PruneStats, error) { return g.FindBest(spec) }

// PreferRecognized reports whether a preference string belongs to a
// flavour family the goal-directed pruner understands; unrecognised
// strings run undirected and are flagged via PruneStats.PreferUnknown.
func PreferRecognized(prefer string) bool { return nm.PreferRecognized(prefer) }

// BuildFig4 constructs the paper's Fig 4 VPN testbed.
func BuildFig4() (*Testbed, error) { return experiments.BuildFig4() }

// BuildFig9 constructs the paper's Fig 9 switched (VLAN) testbed.
func BuildFig9() (*Testbed, error) { return experiments.BuildFig9() }

// BuildDiamondShared constructs the shared-core diamond testbed of the
// multi-intent scenarios: k customer pairs on two edge switches, two
// equivalent transit switches, one VLAN tunnel domain. Every pair's VPN
// crosses the same managed devices, which is exactly the workload the
// NM's intent store (Submit / Withdraw / Reconcile) exists for.
func BuildDiamondShared(k int) (*Testbed, []SharedPair, error) {
	return experiments.BuildDiamondShared(k)
}

// BuildLinearGREIGP constructs the GRE chain of n routers with an IGP
// routing control module (§II-F) on every router: the compiled
// configuration includes one pipe per IGP adjacency, the modules flood
// link state and install the transit routes, and the tunnel forwards
// end-to-end at any n (the plain chain only delivers at n=3).
func BuildLinearGREIGP(n int) (*Testbed, error) { return experiments.BuildLinearGREIGP(n) }

// BuildDiamondGRE constructs the routed diamond of the GRE reroute
// scenarios: two edge routers, two equivalent transit arms, IGP control
// modules throughout. Cutting the active arm's wire reroutes the tunnel
// over the other arm and the IGP re-converges.
func BuildDiamondGRE() (*Testbed, error) { return experiments.BuildDiamondGRE() }

// DiamondGREGoal returns the site-to-site goal across the GRE diamond.
func DiamondGREGoal() Goal { return experiments.DiamondGREGoal() }

// Fig4Goal returns the §III-C site-to-site connectivity goal.
func Fig4Goal() Goal { return experiments.Fig4Goal() }

// Fig9Goal returns the VLAN tunnel goal.
func Fig9Goal() Goal { return experiments.Fig9Goal() }

// VPNIntent wraps a goal as a declarative intent; prefer pins a path
// flavour by description ("MPLS", "GRE-IP tunnel", "VLAN tunnel") or ""
// for the paper's automatic selector.
func VPNIntent(goal Goal, prefer string) Intent { return experiments.VPNIntent(goal, prefer) }

// ConfigureVPN plans and applies an intent for the goal in one call;
// prefer selects a specific path flavour by description or "" for the
// automatic selector. Equivalent to NM.Plan + NM.Apply.
func ConfigureVPN(tb *Testbed, goal Goal, prefer string) (*Path, []DeviceScript, error) {
	return experiments.ConfigureVPN(tb, goal, prefer)
}

// Wiring is a generated fabric blueprint: devices with their trunk
// ports, named wires, and the customer-eligible edge devices, all in
// deterministic order (internal/topo).
type Wiring = topo.Wiring

// TopoPair is one intent endpoint pair of a generated fabric.
type TopoPair = topo.Pair

// FatTree generates a k-ary fat-tree/Clos fabric (k even): k pods of
// edge and aggregation switches under (k/2)^2 cores.
func FatTree(k int) (*Wiring, error) { return topo.FatTree(k) }

// Ring generates a cycle of n switches; intents pair diametrically
// opposite devices.
func Ring(n int) (*Wiring, error) { return topo.Ring(n) }

// Torus generates a rows x cols 2D torus with wraparound, degree 4
// everywhere.
func Torus(rows, cols int) (*Wiring, error) { return topo.Torus(rows, cols) }

// Waxman generates a connected random graph with the classic Waxman
// edge probability, deterministic per seed.
func Waxman(n int, alpha, beta float64, seed int64) (*Wiring, error) {
	return topo.Waxman(n, alpha, beta, seed)
}

// BuildTopoVLAN realises a generated wiring as a full switched testbed
// carrying pairsN customer pairs, each with sites, QinQ edge ports and
// a ready-made VLAN tunnel goal.
func BuildTopoVLAN(w *Wiring, pairsN int) (*Testbed, []SharedPair, error) {
	return experiments.BuildTopoVLAN(w, pairsN)
}

// ChaosSpec is one seeded multi-failure episode: how many wires,
// devices and applied pipes to kill concurrently, under a min-cut
// guard that never strands a protected intent pair.
type ChaosSpec = experiments.ChaosSpec

// ChaosReport lists what an episode actually killed.
type ChaosReport = experiments.ChaosReport

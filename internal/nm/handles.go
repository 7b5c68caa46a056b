package nm

import (
	"sort"

	"conman/internal/core"
)

// Dependency maintenance for embedded low-level handles (§II-E). Some
// modules export low-level fields through listFieldsAndValues that a
// module above embeds verbatim into its own configuration — the MPLS
// module's NHLFE key, consumed by the IP module's classified-ingress
// route. The embedded copy is invisible to the abstract diff: if the
// provider recreates the component (pipe churn regenerates the key), a
// kept consumer rule silently points at state that no longer exists.
//
// The NM closes the loop in two places:
//   - at diff time, a would-be-kept rule steering into a pipe whose
//     lower module advertises HandleFields is probed with listFields and
//     replaced when the recorded handle (HandleResolved, reported via
//     showActual) no longer matches;
//   - at apply time, an installTrigger is registered on each such
//     provider component, so the provider's fieldsChanged fires a
//     Trigger the reconciliation daemon turns into a dirty mark for the
//     dependent intents.

// handleDep is one (provider module, component) pair some desired switch
// rule embeds resolved fields from.
type handleDep struct {
	provider  core.ModuleRef
	component string
}

// exportsHandles reports whether the module advertises exported handle
// fields in its abstraction (Table II's listFieldsAndValues contract).
func (n *NM) exportsHandles(ref core.ModuleRef) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.devices[ref.Device]
	if d == nil {
		return false
	}
	for _, abs := range d.Modules {
		if abs.Ref == ref {
			return len(abs.HandleFields) > 0
		}
	}
	return false
}

// handleFresh probes the provider's current fields for the component and
// reports whether a consumer rule installed with the recorded handle is
// still valid. An unreachable provider or empty current fields count as
// stale: the consumer must be reinstalled once the provider settles.
func (n *NM) handleFresh(provider core.ModuleRef, pipe core.PipeID, recorded string) bool {
	fields, err := n.ListFields(provider, "pipe:"+string(pipe))
	if err != nil {
		return false
	}
	return core.CanonicalHandle(fields) == recorded
}

// installHandleTriggers registers a dependency-maintenance trigger for
// each collected handle dependency (deduplicated; ensureTrigger keeps
// repeated applies quiet).
func (n *NM) installHandleTriggers(deps []handleDep) error {
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].provider.String() != deps[j].provider.String() {
			return deps[i].provider.String() < deps[j].provider.String()
		}
		return deps[i].component < deps[j].component
	})
	var last handleDep
	for i, d := range deps {
		if i > 0 && d == last {
			continue
		}
		last = d
		if err := n.ensureTrigger(d.provider, d.component); err != nil {
			return err
		}
	}
	return nil
}

// markStale updates the NM's memory of devices whose state could not be
// observed (killed or partitioned): pruned devices were reached and
// cleaned this pass, unreachable ones are remembered so later plans keep
// trying to prune them when they come back.
func (n *NM) markStale(pruned, unreachable []core.DeviceID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range pruned {
		delete(n.staleDevs, d)
	}
	for _, d := range unreachable {
		n.staleDevs[d] = true
	}
}

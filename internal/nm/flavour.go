package nm

// Path flavour: the §III-C.1 vocabulary that tells candidate paths
// apart ("MPLS", "GRE-IP tunnel", "VLAN tunnel", ...). Describe renders
// a found path in it, FindSpec.Prefer names one of its strings, and a
// flavoured best-first search folds the features below along each
// partial path so it can keep the best prefix of the preferred flavour
// and drop prefixes that can no longer become it. This file is the only
// part of the path search that names GRE, VLAN or MPLS; a search with
// no Prefer never consults it.

import (
	"fmt"
	"strings"

	"conman/internal/core"
)

// uses reports whether any hop's module has the given name.
func (p *Path) uses(name core.ModuleName) bool {
	for _, h := range p.Hops {
		if h.Node.Ref.Name == name {
			return true
		}
	}
	return false
}

// Describe classifies the path in the paper's §III-C.1 vocabulary, e.g.
// "MPLS", "GRE-IP tunnel", "IP-IP over MPLS (A-B)".
func (p *Path) Describe() string {
	var tunnel string
	hasGRE := p.uses(core.NameGRE)
	ipGroups := 0
	for _, g := range p.Groups {
		if g.Protocol == core.NameIPv4 && !g.External {
			ipGroups++
		}
	}
	switch {
	case hasGRE:
		tunnel = "GRE-IP tunnel"
	case ipGroups > 0:
		tunnel = "IP-IP tunnel"
	}
	var mplsDevs []string
	seen := map[string]bool{}
	for _, h := range p.Hops {
		if h.Node.Ref.Name == core.NameMPLS && !seen[string(h.Node.Ref.Device)] {
			seen[string(h.Node.Ref.Device)] = true
			mplsDevs = append(mplsDevs, string(h.Node.Ref.Device))
		}
	}
	if p.uses(core.NameVLAN) {
		// Distinguish the canonical configuration (one VLAN spanning
		// every switch, Fig 9) from variants where a transit switch
		// bridges tagged frames with [phy => phy] only, or where the
		// tag is popped and re-pushed mid-path (segmented tunnels).
		withVLAN := map[core.DeviceID]bool{}
		all := map[core.DeviceID]bool{}
		for _, h := range p.Hops {
			all[h.Node.Ref.Device] = true
			if h.Node.Ref.Name == core.NameVLAN {
				withVLAN[h.Node.Ref.Device] = true
			}
		}
		vlanGroups := 0
		for _, g := range p.Groups {
			if g.Protocol == core.NameVLAN {
				vlanGroups++
			}
		}
		switch {
		case len(withVLAN) < len(all):
			return "VLAN tunnel (transparent core)"
		case vlanGroups > 1:
			return "VLAN tunnel (segmented)"
		default:
			return "VLAN tunnel"
		}
	}
	switch {
	case len(mplsDevs) == 0 && tunnel == "":
		return "plain"
	case len(mplsDevs) == 0:
		return tunnel
	case tunnel == "":
		return "MPLS"
	default:
		span := fmt.Sprintf("%s-%s", mplsDevs[0], mplsDevs[len(mplsDevs)-1])
		all := true
		for _, h := range p.Hops {
			if h.Node.Ref.Name == core.NameIPv4 && !seen[string(h.Node.Ref.Device)] {
				all = false
			}
		}
		if all {
			return fmt.Sprintf("%s over MPLS", tunnel)
		}
		return fmt.Sprintf("%s over MPLS (%s)", tunnel, span)
	}
}

// PreferRecognized reports whether a preference string is one Describe
// can return: "plain", "MPLS", the three "VLAN tunnel" forms, or
// "GRE-IP tunnel" / "IP-IP tunnel", alone or followed by " over MPLS"
// or " over MPLS (X-Y)". No path can match any other string, so
// FindBest returns at once for one, with PruneStats.PreferUnknown set,
// and callers can report a typo instead of a bare "no path".
func PreferRecognized(prefer string) bool {
	switch prefer {
	case "plain", "MPLS", "VLAN tunnel", "VLAN tunnel (segmented)", "VLAN tunnel (transparent core)":
		return true
	}
	for _, tunnel := range []string{"GRE-IP tunnel", "IP-IP tunnel"} {
		rest, ok := strings.CutPrefix(prefer, tunnel)
		if !ok {
			continue
		}
		if rest == "" || rest == " over MPLS" {
			return true
		}
		span, ok := strings.CutPrefix(rest, " over MPLS (")
		if !ok {
			return false
		}
		span, ok = strings.CutSuffix(span, ")")
		first, last, dash := strings.Cut(span, "-")
		return ok && dash && first != "" && last != ""
	}
	return false
}

// bfFlavor accumulates, along a partial path of a flavoured search, the
// features Describe derives a flavour from. It is part of that search's
// dominance key, so a cheap prefix of one flavour never prunes the
// prefix of another.
type bfFlavor struct {
	hasGRE     bool
	ipGroups   uint8 // internal IPv4 groups pushed (capped)
	vlanGroups uint8 // VLAN groups pushed (capped)
	vlanUsed   bool
	plainDev   bool // a fully traversed device had no VLAN hop
	ipOffMPLS  bool // a fully traversed device had IPv4 hops but no MPLS
	firstMPLS  core.DeviceID
	lastMPLS   core.DeviceID
	// The device being traversed, folded into plainDev and ipOffMPLS
	// when the path leaves it over a wire.
	devVLAN, devIPv4, devMPLS bool
}

// leaveDevice folds the device just traversed into the flavour and
// starts the next one fresh.
func (fl *bfFlavor) leaveDevice() {
	if !fl.devVLAN {
		fl.plainDev = true
	}
	if fl.devIPv4 && !fl.devMPLS {
		fl.ipOffMPLS = true
	}
	fl.devVLAN, fl.devIPv4, fl.devMPLS = false, false, false
}

// add records one hop's contribution to the flavour.
func (fl *bfFlavor) add(node *Node, mode core.SwitchMode) {
	push := mode.Effect() == core.EffectPush
	switch canon(node.Ref.Name) {
	case core.NameGRE:
		fl.hasGRE = true
	case core.NameVLAN:
		fl.vlanUsed = true
		fl.devVLAN = true
		if push && fl.vlanGroups < 3 {
			fl.vlanGroups++
		}
	case core.NameIPv4:
		fl.devIPv4 = true
		if push && fl.ipGroups < 3 {
			fl.ipGroups++
		}
	case core.NameMPLS:
		fl.devMPLS = true
		if fl.firstMPLS == "" {
			fl.firstMPLS = node.Ref.Device
		}
		fl.lastMPLS = node.Ref.Device
	}
}

// viable reports whether a partial path with these features can still
// complete into the preferred (recognised) Describe string — the goal
// direction of a flavoured search. Only monotone features are consulted
// (hasGRE, vlanUsed, group counts, plainDev and firstMPLS never revert
// once set), so a false here is definitive.
func (fl bfFlavor) viable(prefer string) bool {
	switch {
	case prefer == "VLAN tunnel":
		// One tag spanning every switch: no transparently bridged
		// device, no second tag group.
		return !fl.plainDev && fl.vlanGroups <= 1
	case prefer == "VLAN tunnel (segmented)":
		return !fl.plainDev
	case prefer == "plain":
		return !fl.hasGRE && !fl.vlanUsed && fl.ipGroups == 0 && fl.firstMPLS == ""
	case prefer == "MPLS":
		return !fl.hasGRE && !fl.vlanUsed && fl.ipGroups == 0
	case strings.HasPrefix(prefer, "GRE-IP tunnel"):
		if fl.vlanUsed {
			return false
		}
		return prefer != "GRE-IP tunnel" || fl.firstMPLS == ""
	case strings.HasPrefix(prefer, "IP-IP tunnel"):
		if fl.vlanUsed || fl.hasGRE {
			return false
		}
		return prefer != "IP-IP tunnel" || fl.firstMPLS == ""
	default: // "VLAN tunnel (transparent core)"
		return true
	}
}

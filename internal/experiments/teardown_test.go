package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
)

// Teardown oracle: taking every NM-created component back out must leave
// each managed device's kernel exactly as it was before the first Apply,
// and showActual listing no NM-created pipe or rule. The invariant is
// stated once, as a fingerprint comparison, so a module whose undo path
// forgets some of the state its install path wrote is caught whichever
// module it is.
//
// Excluded, because it is device-lifetime state no single component
// owns: loaded kernel modules (insmod/modprobe), ip_forward, and MPLS
// labelspaces. The fingerprint never renders them.

// kernelFingerprint renders, per managed device, the kernel state
// NM-created components write: routes in every table, policy rules and
// rt_tables, MPLS ILM/NHLFE/XC entries, interfaces (tunnels included),
// filters, VLAN definitions and port modes.
func kernelFingerprint(tb *Testbed) map[core.DeviceID][]string {
	out := make(map[core.DeviceID][]string, len(tb.Devices))
	for id, d := range tb.Devices {
		k := d.Kernel
		lines := k.ForwardingConfig()
		for _, name := range k.Ifaces() {
			i, ok := k.Iface(name)
			if !ok {
				continue
			}
			line := fmt.Sprintf("iface %s kind %d addrs %v", name, i.Kind, i.Addrs)
			if t := i.Tunnel; t != nil {
				line += fmt.Sprintf(" tunnel %v->%v ikey %d okey %d csum %v/%v seq %v/%v",
					t.Local, t.Remote, t.IKey, t.OKey, t.ICsum, t.OCsum, t.ISeq, t.OSeq)
			}
			lines = append(lines, line)
		}
		for _, f := range k.Filters() {
			f.Hits = 0
			lines = append(lines, fmt.Sprintf("filter %+v", f))
		}
		for vid := uint16(1); vid < 4095; vid++ {
			if name, mtu, ok := k.VLANOf(vid); ok {
				lines = append(lines, fmt.Sprintf("vlan %d name %s mtu %d", vid, name, mtu))
			}
		}
		for _, port := range d.Ports() {
			mode, vid := k.PortModeOf(port)
			lines = append(lines, fmt.Sprintf("port %s mode %v vid %d", port, mode, vid))
		}
		slices.Sort(lines)
		out[id] = lines
	}
	return out
}

// fingerprintDiff lists, per device, the lines only one side has.
func fingerprintDiff(before, after map[core.DeviceID][]string) []string {
	var diffs []string
	for id, b := range before {
		a := after[id]
		for _, l := range b {
			if !slices.Contains(a, l) {
				diffs = append(diffs, fmt.Sprintf("%s: - %s", id, l))
			}
		}
		for _, l := range a {
			if !slices.Contains(b, l) {
				diffs = append(diffs, fmt.Sprintf("%s: + %s", id, l))
			}
		}
	}
	slices.Sort(diffs)
	return diffs
}

// nmComponents lists the NM-created pipes, switch rules and filters
// showActual reports on a device.
func nmComponents(t *testing.T, tb *Testbed, dev core.DeviceID) []string {
	t.Helper()
	states, err := tb.NM.ShowActual(dev)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, st := range states {
		for _, ps := range st.Pipes {
			if ps.End != core.EndPhy {
				out = append(out, fmt.Sprintf("%s pipe %s", st.Ref, ps.ID))
			}
		}
		for _, r := range st.SwitchRules {
			out = append(out, fmt.Sprintf("%s rule %s", st.Ref, r.ID))
		}
		for _, f := range st.Filters {
			out = append(out, fmt.Sprintf("%s filter %s", st.Ref, f.ID))
		}
	}
	return out
}

// TestTeardownRestoresKernel runs the oracle over every teardown path:
// Plan+Apply then Withdraw+Reconcile of the only intent on the paper's
// three VPN flavours and on a GRE+IGP chain (whose IGP adjacencies are
// NM-created pipes too), and Withdraw+Reconcile on a shared core, one
// pair at a time.
func TestTeardownRestoresKernel(t *testing.T) {
	destroy := func(build func() (*Testbed, error), intent func() nm.Intent) func(t *testing.T) (*Testbed, map[core.DeviceID][]string) {
		return func(t *testing.T) (*Testbed, map[core.DeviceID][]string) {
			tb, err := build()
			if err != nil {
				t.Fatal(err)
			}
			before := kernelFingerprint(tb)
			in := intent()
			plan, err := tb.NM.Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.NM.Apply(plan); err != nil {
				t.Fatal(err)
			}
			if err := tb.VerifyConnectivity(99000); err != nil {
				t.Fatalf("after apply: %v", err)
			}
			if len(fingerprintDiff(before, kernelFingerprint(tb))) == 0 {
				t.Fatal("apply left every kernel untouched: the oracle would be vacuous")
			}
			if err := tb.NM.Withdraw(in.Name); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.NM.Reconcile(); err != nil {
				t.Fatalf("teardown: %v", err)
			}
			return tb, before
		}
	}
	igp := GREIGPScenario()
	cases := []struct {
		name string
		run  func(t *testing.T) (*Testbed, map[core.DeviceID][]string)
	}{
		{"Fig4-GRE", destroy(BuildFig4, func() nm.Intent { return VPNIntent(Fig4Goal(), "GRE-IP tunnel") })},
		{"Fig4-MPLS", destroy(BuildFig4, func() nm.Intent { return VPNIntent(Fig4Goal(), "MPLS") })},
		{"Fig9-VLAN", destroy(BuildFig9, func() nm.Intent { return VPNIntent(Fig9Goal(), "VLAN tunnel") })},
		{"GRE+IGP-8", destroy(func() (*Testbed, error) { return igp.Build(8) }, func() nm.Intent { return igp.Intent(8) })},
		{"DiamondShared-2", func(t *testing.T) (*Testbed, map[core.DeviceID][]string) {
			tb, pairs, err := BuildDiamondShared(2)
			if err != nil {
				t.Fatal(err)
			}
			before := kernelFingerprint(tb)
			for _, p := range pairs {
				if err := tb.NM.Submit(p.Intent("VLAN tunnel")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tb.NM.Reconcile(); err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if err := tb.VerifyPair(p, uint32(99100+100*i)); err != nil {
					t.Fatalf("pair %d after reconcile: %v", p.Index, err)
				}
			}
			for i, p := range pairs {
				if err := tb.NM.Withdraw(p.Intent("VLAN tunnel").Name); err != nil {
					t.Fatal(err)
				}
				if _, err := tb.NM.Reconcile(); err != nil {
					t.Fatalf("reconcile after withdrawing pair %d: %v", p.Index, err)
				}
				if i+1 < len(pairs) {
					if err := tb.VerifyPair(pairs[i+1], uint32(99500+100*i)); err != nil {
						t.Fatalf("pair %d after withdrawing pair %d: %v", pairs[i+1].Index, p.Index, err)
					}
				}
			}
			return tb, before
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, before := tc.run(t)
			defer tb.Close()
			tb.Net.Flush()
			if diff := fingerprintDiff(before, kernelFingerprint(tb)); len(diff) > 0 {
				t.Errorf("teardown left kernel residue:\n%s", strings.Join(diff, "\n"))
			}
			for id := range tb.Devices {
				if left := nmComponents(t, tb, id); len(left) > 0 {
					t.Errorf("%s: showActual still lists %v", id, left)
				}
			}
		})
	}
}

// TestTeardownOutOfBandPipeDelete deletes a GRE tunnel's up pipe without
// deleting the switch rule that built the tunnel first (the §II-E "pipe
// getting killed" fault): the tunnel must go with the pipe, and the peer
// GRE module must hear about it exactly once so it resets its receive
// sequence state.
func TestTeardownOutOfBandPipeDelete(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tb.NM.Plan(VPNIntent(Fig4Goal(), "GRE-IP tunnel"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Apply(plan); err != nil {
		t.Fatal(err)
	}
	tb.NM.EnableMessageLog()
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind:   core.ComponentPipe,
		Module: core.Ref(core.NameGRE, "A", "l"),
		ID:     "P1",
	}); err != nil {
		t.Fatal(err)
	}
	k := tb.Devices["A"].Kernel
	for _, name := range k.Ifaces() {
		if _, ok := k.Tunnel(name); ok {
			t.Errorf("tunnel %s survived its pipe", name)
		}
	}
	downs := 0
	for _, line := range tb.NM.MessageLog() {
		if strings.Contains(line, "gre-down") {
			downs++
		}
	}
	if downs != 1 {
		t.Errorf("%d gre-down relays, want 1:\n%s", downs, strings.Join(tb.NM.MessageLog(), "\n"))
	}
}

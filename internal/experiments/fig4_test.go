package experiments

import (
	"strings"
	"testing"

	"conman/internal/nm"
)

func findPaths(t *testing.T, tb *Testbed) []*nm.Path {
	t.Helper()
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		t.Fatal(err)
	}
	goal := Fig4Goal()
	paths, _, err := g.FindPaths(nm.FindSpec{
		From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func pathByDescription(t *testing.T, paths []*nm.Path, desc string) *nm.Path {
	t.Helper()
	for _, p := range paths {
		if p.Describe() == desc {
			return p
		}
	}
	var got []string
	for _, p := range paths {
		got = append(got, p.Describe()+" ["+p.Modules()+"]")
	}
	t.Fatalf("no path %q among:\n%s", desc, strings.Join(got, "\n"))
	return nil
}

func TestFig4PathFinderFindsNinePaths(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	paths := findPaths(t, tb)
	var got []string
	for _, p := range paths {
		got = append(got, p.Describe()+" ["+p.Modules()+"]")
	}
	if len(paths) != 9 {
		t.Fatalf("found %d paths, want 9 (§III-C.1):\n%s", len(paths), strings.Join(got, "\n"))
	}
	// The three expected paths of §III-C.1, with the paper's module
	// sequences.
	want := map[string]string{
		"IP-IP tunnel":  "a, g, h, b, c, i, d, e, j, k, f",
		"GRE-IP tunnel": "a, g, l, h, b, c, i, d, e, j, n, k, f",
		"MPLS":          "a, g, o, b, c, p, d, e, q, k, f",
	}
	for desc, mods := range want {
		p := pathByDescription(t, paths, desc)
		if p.Modules() != mods {
			t.Errorf("%s path = %q, want %q", desc, p.Modules(), mods)
		}
	}
	// The six additional combinations the paper reports.
	for _, desc := range []string{
		"IP-IP tunnel over MPLS",
		"GRE-IP tunnel over MPLS",
		"IP-IP tunnel over MPLS (A-B)",
		"IP-IP tunnel over MPLS (B-C)",
		"GRE-IP tunnel over MPLS (A-B)",
		"GRE-IP tunnel over MPLS (B-C)",
	} {
		pathByDescription(t, paths, desc)
	}
}

func TestFig4SelectorPrefersMPLS(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	paths := findPaths(t, tb)
	best := nm.SelectPath(paths)
	if best == nil {
		t.Fatal("no path selected")
	}
	// §III-C.1: MPLS and IP-IP tie on pipe count; the NM prefers MPLS
	// because its abstraction advertises good forwarding bandwidth.
	if best.Describe() != "MPLS" {
		t.Fatalf("selected %q [%s], want MPLS", best.Describe(), best.Modules())
	}
}

// TestFig7Fig8Fig9ConfigurationEndToEnd configures each of the paper's
// three VPN flavours through the intent lifecycle (Plan + Apply) on a
// fresh testbed, then checks that every rule installed, that the data
// plane delivers, and that the device-level configuration on A carries
// the commands the paper's figures show.
func TestFig7Fig8Fig9ConfigurationEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func() (*Testbed, error)
		goal   nm.Goal
		prefer string
		token  uint32
		// notify, when set, is a module event the NM must receive.
		notify string
		// want lists commands device A's exec log must contain.
		want []string
	}{
		// §III-B: a keyed GRE tunnel with sequence numbers and checksums.
		{"Fig7-GRE", BuildFig4, Fig4Goal(), "GRE-IP tunnel", 1000, "",
			[]string{"ip tunnel add name gre-", "ikey", "okey", "iseq oseq", "icsum ocsum"}},
		// Fig 8a: A uses ilm 10001 (in-label from B) and pushes 2001
		// (B's in-label); the far-end LSR reports the LSP (Table VI).
		{"Fig8-MPLS", BuildFig4, Fig4Goal(), "MPLS", 2000, "lsp-established", []string{
			"mpls labelspace set dev eth2 labelspace 0",
			"mpls ilm add label gen 10001 labelspace 0",
			"push gen 2001 nexthop eth2 ipv4 204.9.168.2",
			"ip route add 10.0.2.0/24 via 204.9.168.2 mpls",
		}},
		// Fig 9a on switch A.
		{"Fig9-VLAN", BuildFig9, Fig9Goal(), "VLAN tunnel", 3000, "", []string{
			"set vlan 22 name C1 mtu 1504",
			"switchport access vlan 22",
			"switchport mode dot1q-tunnel",
			"set vlan 22 gigabitethernet0/9",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			events, cancel := tb.NM.Subscribe(0)
			defer cancel()
			path, _, err := ConfigureVPN(tb, tc.goal, tc.prefer)
			if err != nil {
				t.Fatal(err)
			}
			if path == nil || path.Describe() != tc.prefer {
				t.Fatalf("configured path %v, want %q", path, tc.prefer)
			}
			for id, dev := range tb.Devices {
				if n := dev.MA.PendingRules(); n != 0 {
					t.Fatalf("device %s still has %d pending rules; failed: %v", id, n, dev.MA.FailedRules())
				}
				if f := dev.MA.FailedRules(); len(f) != 0 {
					t.Fatalf("device %s failed rules: %v", id, f)
				}
			}
			if err := tb.VerifyConnectivity(tc.token); err != nil {
				t.Fatal(err)
			}
			log := strings.Join(tb.Devices["A"].Kernel.ExecLog(), "\n")
			for _, want := range tc.want {
				if !strings.Contains(log, want) {
					t.Errorf("device A exec log missing %q:\n%s", want, log)
				}
			}
			if tc.notify == "" {
				return
			}
			found := false
			for len(events) > 0 {
				if ev := <-events; ev.Kind == nm.EventNotify && ev.What == tc.notify {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s notification received by the NM", tc.notify)
			}
		})
	}
}

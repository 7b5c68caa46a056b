package kernel_test

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"conman/internal/core"
	"conman/internal/kernel"
	"conman/internal/netsim"
	"conman/internal/packet"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// rig wires kernels to a netsim network.
type rig struct {
	t   *testing.T
	net *netsim.Network
	ks  map[core.DeviceID]*kernel.Kernel
}

func newRig(t *testing.T) *rig {
	return &rig{t: t, net: netsim.New(), ks: map[core.DeviceID]*kernel.Kernel{}}
}

func (r *rig) add(id core.DeviceID, role kernel.Role, ports ...string) *kernel.Kernel {
	dev := id
	k := kernel.New(dev, role,
		func(port string, frame []byte) error {
			return r.net.Send(netsim.PortID{Device: dev, Name: port}, frame)
		},
		func(port string) (packet.MAC, bool) {
			m, err := r.net.PortMAC(netsim.PortID{Device: dev, Name: port})
			return m, err == nil
		})
	r.net.AddDevice(id, k)
	for _, p := range ports {
		if _, err := r.net.AddPort(id, p); err != nil {
			r.t.Fatal(err)
		}
		k.AddPhysical(p)
	}
	r.ks[id] = k
	return k
}

func (r *rig) connect(name string, a, b netsim.PortID) {
	if _, err := r.net.Connect(name, a, b); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) exec(id core.DeviceID, script string) string {
	out, err := r.ks[id].ExecScript(script)
	if err != nil {
		r.t.Fatalf("exec on %s: %v", id, err)
	}
	return out
}

func port(d core.DeviceID, n string) netsim.PortID { return netsim.PortID{Device: d, Name: n} }

// customerEdge configures a customer router: uplink + site LAN + default
// route toward the ISP.
func customerEdge(t *testing.T, k *kernel.Kernel, uplink string, uplinkAddr netip.Prefix, lan netip.Prefix, gw netip.Addr) {
	t.Helper()
	if err := k.AddAddr(uplink, uplinkAddr); err != nil {
		t.Fatal(err)
	}
	k.AddLAN("lan0", lan)
	k.SetIPForward(true)
	k.SetProxyARP(true)
	if err := k.AddRoute("", kernel.Route{Via: gw, Dev: uplink, MPLSKey: -1}); err != nil {
		t.Fatal(err)
	}
}

// buildGRERig builds the Fig 4 testbed D-A-B-C-E and configures the GRE
// VPN with the paper's Fig 7(a) script on A (mirrored on C).
func buildGRERig(t *testing.T) *rig {
	r := newRig(t)
	d := r.add("D", kernel.RoleRouter, "eth0")
	a := r.add("A", kernel.RoleRouter, "eth1", "eth2")
	b := r.add("B", kernel.RoleRouter, "eth0", "eth1")
	c := r.add("C", kernel.RoleRouter, "eth1", "eth2")
	e := r.add("E", kernel.RoleRouter, "eth0")
	r.connect("DA", port("D", "eth0"), port("A", "eth1"))
	r.connect("AB", port("A", "eth2"), port("B", "eth0"))
	r.connect("BC", port("B", "eth1"), port("C", "eth2"))
	r.connect("CE", port("C", "eth1"), port("E", "eth0"))

	customerEdge(t, d, "eth0", pfx("192.168.0.1/24"), pfx("10.0.1.1/24"), ip("192.168.0.2"))
	customerEdge(t, e, "eth0", pfx("192.168.1.1/24"), pfx("10.0.2.1/24"), ip("192.168.1.2"))

	for _, as := range []struct {
		k     *kernel.Kernel
		iface string
		p     netip.Prefix
	}{
		{a, "eth1", pfx("192.168.0.2/24")},
		{a, "eth2", pfx("204.9.168.1/24")},
		{b, "eth0", pfx("204.9.168.2/24")},
		{b, "eth1", pfx("204.9.169.2/24")},
		{c, "eth2", pfx("204.9.169.1/24")},
		{c, "eth1", pfx("192.168.1.2/24")},
	} {
		if err := as.k.AddAddr(as.iface, as.p); err != nil {
			t.Fatal(err)
		}
	}
	b.SetIPForward(true)

	// Fig 7(a), verbatim.
	r.exec("A", `#!/bin/bash
# Insert the GRE-IP kernel module
insmod /lib/modules/2.6.14-2/ip_gre.ko
# Create the GRE tunnel with the appropriate key
ip tunnel add name greA mode gre remote 204.9.169.1 local 204.9.168.1 ikey 1001 okey 2001 icsum ocsum iseq oseq
ifconfig greA 192.168.3.1
# Enable Routing
echo 1 > /proc/sys/net/ipv4/ip_forward
# Create IP routing from customer to tunnel
echo 202 tun-1-2 >> /etc/iproute2/rt_tables
ip rule add to 10.0.2.0/24 table tun-1-2
ip route add default dev greA table tun-1-2
# Create IP routing from tunnel to customer
echo 203 tun-2-1 >> /etc/iproute2/rt_tables
ip rule add iff greA table tun-2-1
ip route add default dev eth1 table tun-2-1
ip route add to 204.9.169.1 via 204.9.168.2 dev eth2`)

	// Mirror configuration on C.
	r.exec("C", `insmod /lib/modules/2.6.14-2/ip_gre.ko
ip tunnel add name greC mode gre remote 204.9.168.1 local 204.9.169.1 ikey 2001 okey 1001 icsum ocsum iseq oseq
ifconfig greC 192.168.3.2
echo 1 > /proc/sys/net/ipv4/ip_forward
echo 202 tun-1-2 >> /etc/iproute2/rt_tables
ip rule add to 10.0.1.0/24 table tun-1-2
ip route add default dev greC table tun-1-2
echo 203 tun-2-1 >> /etc/iproute2/rt_tables
ip rule add iff greC table tun-2-1
ip route add default dev eth1 table tun-2-1
ip route add to 204.9.168.1 via 204.9.169.2 dev eth2`)
	return r
}

func TestGREVPNEndToEnd(t *testing.T) {
	r := buildGRERig(t)
	r.net.EnableCapture("AB")

	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 42); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("E echoes = %v", got)
	}
	if got := r.ks["D"].ProbeReplies(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("D replies = %v", got)
	}

	// On-the-wire encapsulation between A and B must be GRE with the
	// negotiated key, sequence numbers and checksums (Fig 7).
	var sawGRE bool
	for _, c := range r.net.Captures("AB") {
		d, err := packet.Decode(c.Bytes, packet.LayerTypeEthernet)
		if err != nil {
			continue
		}
		if l := d.Layer(packet.LayerTypeGRE); l != nil {
			g := l.(packet.GRE)
			if !g.KeyPresent || !g.SeqPresent || !g.ChecksumPresent {
				t.Fatalf("GRE options missing: %+v", g)
			}
			if g.Key != 2001 && g.Key != 1001 {
				t.Fatalf("unexpected GRE key %d", g.Key)
			}
			sawGRE = true
		}
	}
	if !sawGRE {
		t.Fatal("no GRE frames captured on the A-B link")
	}
}

func TestGREVPNProxyARPHostInSite(t *testing.T) {
	r := buildGRERig(t)
	// Probe an address inside S2's prefix that is not E's own: proxy ARP
	// and the connected LAN route deliver it to the site.
	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.77"), 7); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("E echoes = %v", got)
	}
}

func TestGREVPNIsolation(t *testing.T) {
	r := buildGRERig(t)
	// Traffic to a prefix outside the VPN must not leak into the tunnel.
	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("8.8.8.8"), 99); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 0 {
		t.Fatalf("leak: E saw %v", got)
	}
	if got := r.ks["D"].ProbeReplies(); len(got) != 0 {
		t.Fatalf("unexpected reply %v", got)
	}
}

func TestGREInOrderDeliveryDropsReplays(t *testing.T) {
	r := buildGRERig(t)
	// Prime the tunnel so A's greA has accepted a high sequence number.
	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 1); err != nil {
		t.Fatal(err)
	}
	echoesBefore := len(r.ks["D"].ProbeEchoes())

	// Hand-craft a GRE packet from C to A carrying a probe to the S1
	// site, with a stale sequence number: the iseq option must drop it.
	inner, err := packet.Serialize(nil,
		packet.IPv4{TTL: 9, Proto: packet.ProtoProbe, Src: ip("10.0.2.1"), Dst: ip("10.0.1.1")},
		packet.Probe{Op: packet.ProbeEcho, Token: 1234})
	if err != nil {
		t.Fatal(err)
	}
	bMAC, _ := r.net.PortMAC(port("B", "eth0"))
	aMAC, _ := r.net.PortMAC(port("A", "eth2"))
	stale := uint32(0) // C's tunnel already transmitted seq >= 0
	frame, err := packet.Serialize(inner,
		packet.Ethernet{Dst: aMAC, Src: bMAC, Type: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 62, Proto: packet.ProtoGRE, Src: ip("204.9.169.1"), Dst: ip("204.9.168.1")},
		packet.GRE{ChecksumPresent: true, KeyPresent: true, Key: 1001, SeqPresent: true, Seq: stale, Proto: packet.EtherTypeIPv4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.Send(port("B", "eth0"), frame); err != nil {
		t.Fatal(err)
	}
	if got := len(r.ks["D"].ProbeEchoes()); got != echoesBefore {
		t.Fatalf("stale-seq packet was delivered (echoes %d -> %d)", echoesBefore, got)
	}

	// The same packet with a fresh sequence number must pass.
	frame2, err := packet.Serialize(inner,
		packet.Ethernet{Dst: aMAC, Src: bMAC, Type: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 62, Proto: packet.ProtoGRE, Src: ip("204.9.169.1"), Dst: ip("204.9.168.1")},
		packet.GRE{ChecksumPresent: true, KeyPresent: true, Key: 1001, SeqPresent: true, Seq: 1 << 20, Proto: packet.EtherTypeIPv4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.Send(port("B", "eth0"), frame2); err != nil {
		t.Fatal(err)
	}
	if got := len(r.ks["D"].ProbeEchoes()); got != echoesBefore+1 {
		t.Fatalf("fresh-seq packet was not delivered")
	}
}

func TestGREWrongKeyDropped(t *testing.T) {
	r := buildGRERig(t)
	inner, _ := packet.Serialize(nil,
		packet.IPv4{TTL: 9, Proto: packet.ProtoProbe, Src: ip("10.0.2.1"), Dst: ip("10.0.1.1")},
		packet.Probe{Op: packet.ProbeEcho, Token: 5})
	bMAC, _ := r.net.PortMAC(port("B", "eth0"))
	aMAC, _ := r.net.PortMAC(port("A", "eth2"))
	frame, _ := packet.Serialize(inner,
		packet.Ethernet{Dst: aMAC, Src: bMAC, Type: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 62, Proto: packet.ProtoGRE, Src: ip("204.9.169.1"), Dst: ip("204.9.168.1")},
		packet.GRE{ChecksumPresent: true, KeyPresent: true, Key: 7777, SeqPresent: true, Seq: 1 << 21, Proto: packet.EtherTypeIPv4})
	if err := r.net.Send(port("B", "eth0"), frame); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["D"].ProbeEchoes(); len(got) != 0 {
		t.Fatalf("wrong-key packet delivered: %v", got)
	}
}

// buildMPLSRig configures the Fig 8 MPLS LSP across A, B, C.
func buildMPLSRig(t *testing.T) *rig {
	r := newRig(t)
	d := r.add("D", kernel.RoleRouter, "eth0")
	a := r.add("A", kernel.RoleRouter, "eth1", "eth2")
	b := r.add("B", kernel.RoleRouter, "eth0", "eth1")
	c := r.add("C", kernel.RoleRouter, "eth1", "eth2")
	e := r.add("E", kernel.RoleRouter, "eth0")
	r.connect("DA", port("D", "eth0"), port("A", "eth1"))
	r.connect("AB", port("A", "eth2"), port("B", "eth0"))
	r.connect("BC", port("B", "eth1"), port("C", "eth2"))
	r.connect("CE", port("C", "eth1"), port("E", "eth0"))

	customerEdge(t, d, "eth0", pfx("192.168.0.1/24"), pfx("10.0.1.1/24"), ip("192.168.0.2"))
	customerEdge(t, e, "eth0", pfx("192.168.1.1/24"), pfx("10.0.2.1/24"), ip("192.168.1.2"))
	for _, as := range []struct {
		k     *kernel.Kernel
		iface string
		p     netip.Prefix
	}{
		{a, "eth1", pfx("192.168.0.2/24")},
		{a, "eth2", pfx("204.9.168.1/24")},
		{b, "eth0", pfx("204.9.168.2/24")},
		{b, "eth1", pfx("204.9.169.2/24")},
		{c, "eth2", pfx("204.9.169.1/24")},
		{c, "eth1", pfx("192.168.1.2/24")},
	} {
		if err := as.k.AddAddr(as.iface, as.p); err != nil {
			t.Fatal(err)
		}
	}

	// Fig 8(a) on A, with the backtick key capture done by the harness
	// the way the shell script does it.
	r.exec("A", "modprobe mpls\nmodprobe mpls4\nmpls labelspace set dev eth2 labelspace 0\nmpls ilm add label gen 10001 labelspace 0")
	keyS2S1 := extractKey(t, r.exec("A", "mpls nhlfe add key 0 mtu 1500 instructions nexthop eth1 ipv4 192.168.0.1"))
	r.exec("A", "mpls xc add ilm label gen 10001 ilm labelspace 0 nhlfe key "+keyS2S1)
	keyS1S2 := extractKey(t, r.exec("A", "mpls nhlfe add key 0 mtu 1500 instructions push gen 2001 nexthop eth2 ipv4 204.9.168.2"))
	r.exec("A", "echo 1 > /proc/sys/net/ipv4/ip_forward\nip route add 10.0.2.0/24 via 204.9.168.2 mpls "+keyS1S2)

	// B: transit LSR, swap 2001->3001 (S1->S2) and 4001->10001 (S2->S1).
	r.exec("B", "modprobe mpls\nmodprobe mpls4\nmpls labelspace set dev eth0 labelspace 0\nmpls labelspace set dev eth1 labelspace 0\nmpls ilm add label gen 2001 labelspace 0\nmpls ilm add label gen 4001 labelspace 0")
	kb1 := extractKey(t, r.exec("B", "mpls nhlfe add key 0 mtu 1500 instructions push gen 3001 nexthop eth1 ipv4 204.9.169.1"))
	r.exec("B", "mpls xc add ilm label gen 2001 ilm labelspace 0 nhlfe key "+kb1)
	kb2 := extractKey(t, r.exec("B", "mpls nhlfe add key 0 mtu 1500 instructions push gen 10001 nexthop eth0 ipv4 204.9.168.1"))
	r.exec("B", "mpls xc add ilm label gen 4001 ilm labelspace 0 nhlfe key "+kb2)

	// C: egress for S1->S2, ingress for S2->S1.
	r.exec("C", "modprobe mpls\nmodprobe mpls4\nmpls labelspace set dev eth2 labelspace 0\nmpls ilm add label gen 3001 labelspace 0")
	kc1 := extractKey(t, r.exec("C", "mpls nhlfe add key 0 mtu 1500 instructions nexthop eth1 ipv4 192.168.1.1"))
	r.exec("C", "mpls xc add ilm label gen 3001 ilm labelspace 0 nhlfe key "+kc1)
	kc2 := extractKey(t, r.exec("C", "mpls nhlfe add key 0 mtu 1500 instructions push gen 4001 nexthop eth2 ipv4 204.9.169.2"))
	r.exec("C", "echo 1 > /proc/sys/net/ipv4/ip_forward\nip route add 10.0.1.0/24 via 204.9.169.2 mpls "+kc2)
	return r
}

// extractKey mimics Fig 8a's `grep key | cut -c 17-26`.
func extractKey(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "key") && len(line) >= 26 {
			return line[16:26]
		}
	}
	t.Fatalf("no key in output %q", out)
	return ""
}

func TestMPLSVPNEndToEnd(t *testing.T) {
	r := buildMPLSRig(t)
	r.net.EnableCapture("AB")
	r.net.EnableCapture("BC")

	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 314); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 1 || got[0] != 314 {
		t.Fatalf("E echoes = %v", got)
	}
	if got := r.ks["D"].ProbeReplies(); len(got) != 1 || got[0] != 314 {
		t.Fatalf("D replies = %v", got)
	}

	// Label 2001 on A-B, label 3001 on B-C (the swap at B).
	wantLabel := func(medium string, label uint32) {
		for _, c := range r.net.Captures(medium) {
			d, err := packet.Decode(c.Bytes, packet.LayerTypeEthernet)
			if err != nil {
				continue
			}
			if l := d.Layer(packet.LayerTypeMPLS); l != nil {
				m := l.(packet.MPLS)
				if m.Entries[0].Label == label {
					return
				}
			}
		}
		t.Fatalf("no MPLS frame with label %d on %s", label, medium)
	}
	wantLabel("AB", 2001)
	wantLabel("BC", 3001)
}

func TestMPLSUnknownLabelDropped(t *testing.T) {
	r := buildMPLSRig(t)
	inner, _ := packet.Serialize(nil,
		packet.IPv4{TTL: 9, Proto: packet.ProtoProbe, Src: ip("10.0.1.1"), Dst: ip("10.0.2.1")},
		packet.Probe{Op: packet.ProbeEcho, Token: 5})
	aMAC, _ := r.net.PortMAC(port("A", "eth2"))
	bMAC, _ := r.net.PortMAC(port("B", "eth0"))
	frame, _ := packet.Serialize(inner,
		packet.Ethernet{Dst: bMAC, Src: aMAC, Type: packet.EtherTypeMPLS},
		packet.MPLS{Entries: []packet.MPLSEntry{{Label: 999, TTL: 64}}})
	if err := r.net.Send(port("A", "eth2"), frame); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 0 {
		t.Fatalf("unknown label delivered: %v", got)
	}
}

// buildVLANRig configures the Fig 9 VLAN tunnel across switches A, B, C.
func buildVLANRig(t *testing.T) *rig {
	r := newRig(t)
	d := r.add("D", kernel.RoleRouter, "eth0")
	r.add("SwA", kernel.RoleSwitch, "gigabitethernet0/7", "gigabitethernet0/9")
	r.add("SwB", kernel.RoleSwitch, "gigabitethernet0/1", "gigabitethernet0/2")
	r.add("SwC", kernel.RoleSwitch, "gigabitethernet0/7", "gigabitethernet0/9")
	e := r.add("E", kernel.RoleRouter, "eth0")
	r.connect("D-SwA", port("D", "eth0"), port("SwA", "gigabitethernet0/7"))
	r.connect("SwA-SwB", port("SwA", "gigabitethernet0/9"), port("SwB", "gigabitethernet0/1"))
	r.connect("SwB-SwC", port("SwB", "gigabitethernet0/2"), port("SwC", "gigabitethernet0/9"))
	r.connect("SwC-E", port("SwC", "gigabitethernet0/7"), port("E", "eth0"))

	// D and E share a subnet across the L2 tunnel.
	customerEdge(t, d, "eth0", pfx("192.168.5.1/24"), pfx("10.0.1.1/24"), ip("192.168.5.2"))
	customerEdge(t, e, "eth0", pfx("192.168.5.2/24"), pfx("10.0.2.1/24"), ip("192.168.5.1"))
	// Point the site routes at each other.
	if err := d.AddRoute("", kernel.Route{Dst: pfx("10.0.2.0/24"), Via: ip("192.168.5.2"), Dev: "eth0", MPLSKey: -1}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRoute("", kernel.Route{Dst: pfx("10.0.1.0/24"), Via: ip("192.168.5.1"), Dev: "eth0", MPLSKey: -1}); err != nil {
		t.Fatal(err)
	}

	// Fig 9(a), verbatim, on switch A.
	r.exec("SwA", `# put module0 port 9 into VLAN22
# ensure MTU is set properly
set vlan 22 name C1 mtu 1504
set vlan 22 gigabitethernet0/9
# ensure module 0 port 7 is access port
interface gigabitethernet0/7
switchport access vlan 22
switchport mode dot1q-tunnel
exit
vlan dot1q tag native
end`)
	// Transit switch B: both ports trunk VLAN 22.
	r.exec("SwB", "set vlan 22 name C1 mtu 1504\nset vlan 22 gigabitethernet0/1\nset vlan 22 gigabitethernet0/2")
	// Mirror on switch C.
	r.exec("SwC", `set vlan 22 name C1 mtu 1504
set vlan 22 gigabitethernet0/9
interface gigabitethernet0/7
switchport access vlan 22
switchport mode dot1q-tunnel
exit
vlan dot1q tag native
end`)
	return r
}

func TestVLANTunnelEndToEnd(t *testing.T) {
	r := buildVLANRig(t)
	r.net.EnableCapture("SwA-SwB")

	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 2718); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 1 || got[0] != 2718 {
		t.Fatalf("E echoes = %v", got)
	}
	if got := r.ks["D"].ProbeReplies(); len(got) != 1 || got[0] != 2718 {
		t.Fatalf("D replies = %v", got)
	}

	// Frames on the inter-switch trunk must carry the 802.1Q tag VID 22.
	var sawTag bool
	for _, c := range r.net.Captures("SwA-SwB") {
		d, err := packet.Decode(c.Bytes, packet.LayerTypeEthernet)
		if err != nil {
			continue
		}
		if l := d.Layer(packet.LayerTypeDot1Q); l != nil {
			if q := l.(packet.Dot1Q); q.VID == 22 {
				sawTag = true
			}
		}
	}
	if !sawTag {
		t.Fatal("no VID-22 tagged frames on the trunk")
	}
}

func TestVLANQinQDoubleTag(t *testing.T) {
	r := buildVLANRig(t)
	r.net.EnableCapture("SwA-SwB")

	// A customer frame that already carries its own 802.1Q tag must be
	// tunneled intact: double-tagged on the trunk (dot1q-tunnel mode).
	dMAC, _ := r.net.PortMAC(port("D", "eth0"))
	frame, err := packet.Serialize([]byte("customer-payload"),
		packet.Ethernet{Dst: packet.BroadcastMAC, Src: dMAC, Type: packet.EtherTypeDot1Q},
		packet.Dot1Q{VID: 7, Type: 0x88B7 /* opaque customer protocol */})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.net.Send(port("D", "eth0"), frame); err != nil {
		t.Fatal(err)
	}
	var sawDouble bool
	for _, c := range r.net.Captures("SwA-SwB") {
		d, err := packet.Decode(c.Bytes, packet.LayerTypeEthernet)
		if err != nil {
			t.Fatalf("trunk frame decode: %v", err)
		}
		var tags []packet.Dot1Q
		for _, l := range d.Layers {
			if l.LayerType() == packet.LayerTypeDot1Q {
				tags = append(tags, l.(packet.Dot1Q))
			}
		}
		if len(tags) == 2 && tags[0].VID == 22 && tags[1].VID == 7 {
			sawDouble = true
		}
	}
	if !sawDouble {
		t.Fatal("no double-tagged (QinQ) frame observed on the trunk")
	}
}

func TestVLANMTUEnforced(t *testing.T) {
	r := buildVLANRig(t)
	// A frame whose payload exceeds the VLAN MTU (1504) must be dropped.
	pad := make([]byte, 1600)
	probe, _ := packet.Serialize(pad, packet.Probe{Op: packet.ProbeEcho, Token: 11})
	if err := r.ks["D"].SendIP(ip("10.0.1.1"), ip("10.0.2.1"), packet.ProtoProbe, probe); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 0 {
		t.Fatalf("oversized frame delivered: %v", got)
	}
}

func TestVLANIsolationOtherVID(t *testing.T) {
	r := buildVLANRig(t)
	// Inject a frame tagged with a different VID directly onto the trunk:
	// switch B must not leak it toward C (not in allow-list? it is: only
	// VID 22 is allowed on B's ports).
	aMAC, _ := r.net.PortMAC(port("SwA", "gigabitethernet0/9"))
	frame, _ := packet.Serialize([]byte("rogue"),
		packet.Ethernet{Dst: packet.BroadcastMAC, Src: aMAC, Type: packet.EtherTypeDot1Q},
		packet.Dot1Q{VID: 33, Type: packet.EtherTypeIPv4})
	r.net.EnableCapture("SwB-SwC")
	if err := r.net.Send(port("SwA", "gigabitethernet0/9"), frame); err != nil {
		t.Fatal(err)
	}
	if caps := r.net.Captures("SwB-SwC"); len(caps) != 0 {
		t.Fatalf("VID-33 frame leaked: %d frames", len(caps))
	}
}

// ---------------------------------------------------------------------------
// Unit tests

func TestExecErrors(t *testing.T) {
	r := newRig(t)
	k := r.add("X", kernel.RoleRouter, "eth0")
	for _, bad := range []string{
		"frobnicate",
		"ip tunnel add name t mode gre remote 1.2.3.4 local 5.6.7.8", // no insmod
		"ip rule add to 10.0.0.0/8 table missing",
		"ip route add default dev eth0 table missing",
		"mpls ilm add label gen 5 labelspace 0", // mpls not loaded
		"echo 5 > /some/other/file",
		"switchport access vlan 3", // outside interface context
		"ip tunnel del t",
		"ifconfig",
	} {
		if _, err := k.Exec(bad); err == nil {
			t.Errorf("Exec(%q): want error", bad)
		}
	}
}

func TestExecTunnelRequiresMode(t *testing.T) {
	r := newRig(t)
	k := r.add("X", kernel.RoleRouter, "eth0")
	if _, err := k.Exec("insmod ip_gre.ko"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Exec("ip tunnel add name t mode ipip remote 1.2.3.4 local 5.6.7.8"); err == nil {
		t.Fatal("want unsupported-mode error")
	}
	if _, err := k.Exec("ip tunnel add name t mode gre remote 1.2.3.4"); err == nil {
		t.Fatal("want missing-local error")
	}
}

func TestExecTunnelStateVisible(t *testing.T) {
	r := newRig(t)
	k := r.add("X", kernel.RoleRouter, "eth0")
	_, err := k.ExecScript(`insmod ip_gre.ko
ip tunnel add name greX mode gre remote 9.9.9.9 local 8.8.8.8 ikey 5 okey 6 iseq oseq
ifconfig greX 172.16.0.1`)
	if err != nil {
		t.Fatal(err)
	}
	tun, ok := k.Tunnel("greX")
	if !ok {
		t.Fatal("tunnel not created")
	}
	if tun.Remote != ip("9.9.9.9") || tun.Local != ip("8.8.8.8") ||
		!tun.HasIKey || tun.IKey != 5 || !tun.HasOKey || tun.OKey != 6 ||
		!tun.ISeq || !tun.OSeq || tun.ICsum || tun.OCsum {
		t.Fatalf("tunnel state %+v", tun)
	}
	if a, ok := k.AddrOf("greX"); !ok || a != ip("172.16.0.1") {
		t.Fatalf("addr = %v %v", a, ok)
	}
	if log := k.ExecLog(); len(log) != 3 {
		t.Fatalf("exec log %v", log)
	}
}

func TestRouteLookupPolicyOrder(t *testing.T) {
	r := newRig(t)
	k := r.add("X", kernel.RoleRouter, "eth0", "eth1")
	if err := k.AddAddr("eth0", pfx("10.1.0.1/24")); err != nil {
		t.Fatal(err)
	}
	k.RegisterTable(100, "special")
	if err := k.AddRoute("special", kernel.Route{Dst: pfx("10.2.0.0/16"), Dev: "eth1", MPLSKey: -1}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddRule(kernel.PolicyRule{To: pfx("10.2.3.0/24"), Table: "special"}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddRoute("", kernel.Route{Dst: pfx("10.2.0.0/16"), Dev: "eth0", MPLSKey: -1}); err != nil {
		t.Fatal(err)
	}
	// Inside the rule's prefix: special table wins.
	rt, table, ok := k.RouteLookup("", ip("10.2.3.4"))
	if !ok || table != "special" || rt.Dev != "eth1" {
		t.Fatalf("lookup = %+v %q %v", rt, table, ok)
	}
	// Outside: falls through to main.
	rt, table, ok = k.RouteLookup("", ip("10.2.9.4"))
	if !ok || table != "main" || rt.Dev != "eth0" {
		t.Fatalf("lookup = %+v %q %v", rt, table, ok)
	}
	// No route at all.
	if _, _, ok := k.RouteLookup("", ip("99.9.9.9")); ok {
		t.Fatal("want miss")
	}
}

func TestRuleTableMissFallsThrough(t *testing.T) {
	r := newRig(t)
	k := r.add("X", kernel.RoleRouter, "eth0")
	if err := k.AddAddr("eth0", pfx("10.1.0.1/24")); err != nil {
		t.Fatal(err)
	}
	k.RegisterTable(100, "empty")
	if err := k.AddRule(kernel.PolicyRule{To: pfx("10.1.0.0/16"), Table: "empty"}); err != nil {
		t.Fatal(err)
	}
	// Rule matches but its table is empty: Linux falls through to main,
	// where the connected route lives.
	rt, table, ok := k.RouteLookup("", ip("10.1.0.7"))
	if !ok || table != "main" || rt.Dev != "eth0" {
		t.Fatalf("lookup = %+v %q %v", rt, table, ok)
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	r := newRig(t)
	k := r.add("X", kernel.RoleRouter, "eth0", "eth1", "eth2")
	for _, rt := range []kernel.Route{
		{Dev: "eth0", MPLSKey: -1},                          // default
		{Dst: pfx("10.0.0.0/8"), Dev: "eth1", MPLSKey: -1},  //
		{Dst: pfx("10.7.0.0/16"), Dev: "eth2", MPLSKey: -1}, //
	} {
		if err := k.AddRoute("", rt); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		dst string
		dev string
	}{
		{"10.7.1.1", "eth2"},
		{"10.9.1.1", "eth1"},
		{"192.0.2.1", "eth0"},
	}
	for _, c := range cases {
		rt, _, ok := k.RouteLookup("", ip(c.dst))
		if !ok || rt.Dev != c.dev {
			t.Fatalf("%s -> %+v %v, want dev %s", c.dst, rt, ok, c.dev)
		}
	}
}

func TestFiltersDropAndCount(t *testing.T) {
	r := newRig(t)
	d := r.add("D", kernel.RoleRouter, "eth0")
	a := r.add("A", kernel.RoleRouter, "eth0")
	r.connect("DA", port("D", "eth0"), port("A", "eth0"))
	if err := d.AddAddr("eth0", pfx("10.0.0.1/24")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddAddr("eth0", pfx("10.0.0.2/24")); err != nil {
		t.Fatal(err)
	}
	f := a.AddFilter(kernel.FilterEntry{
		ID:        "f1",
		SrcPrefix: pfx("10.0.0.1/32"),
		Action:    core.ActionDrop,
	})
	if err := d.SendProbe(ip("10.0.0.2"), 1); err != nil {
		t.Fatal(err)
	}
	if got := a.ProbeEchoes(); len(got) != 0 {
		t.Fatalf("filtered packet delivered: %v", got)
	}
	if fs := a.Filters(); len(fs) != 1 || fs[0].Hits != 1 {
		t.Fatalf("filters = %+v", fs)
	}
	_ = f
	a.DelFilter("f1")
	if err := d.SendProbe(ip("10.0.0.2"), 2); err != nil {
		t.Fatal(err)
	}
	if got := a.ProbeEchoes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after filter removal: %v", got)
	}
}

func TestUDPFilterByPort(t *testing.T) {
	r := newRig(t)
	d := r.add("D", kernel.RoleRouter, "eth0")
	a := r.add("A", kernel.RoleRouter, "eth0")
	r.connect("DA", port("D", "eth0"), port("A", "eth0"))
	if err := d.AddAddr("eth0", pfx("10.0.0.1/24")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddAddr("eth0", pfx("10.0.0.2/24")); err != nil {
		t.Fatal(err)
	}
	var got []string
	a.RegisterUDP(592, func(src netip.Addr, sport uint16, payload []byte) {
		got = append(got, string(payload))
	})
	a.AddFilter(kernel.FilterEntry{
		ID: "deny592", DstPort: 592, HasPort: true, Proto: packet.ProtoUDP, HasProto: true,
		Action: core.ActionDrop,
	})
	if err := d.SendUDP(ip("10.0.0.1"), ip("10.0.0.2"), 1000, 592, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("filtered UDP delivered: %v", got)
	}
	a.DelFilter("deny592")
	if err := d.SendUDP(ip("10.0.0.1"), ip("10.0.0.2"), 1000, 592, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "ok" {
		t.Fatalf("UDP delivery: %v", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	r := buildGRERig(t)
	// A probe with TTL 1 injected at A toward S2 must die at the first
	// forwarding hop.
	inner, _ := packet.Serialize(nil, packet.Probe{Op: packet.ProbeEcho, Token: 66})
	pktb, _ := packet.Serialize(inner, packet.IPv4{TTL: 1, Proto: packet.ProtoProbe, Src: ip("10.0.1.1"), Dst: ip("10.0.2.1")})
	dMAC, _ := r.net.PortMAC(port("D", "eth0"))
	aMAC, _ := r.net.PortMAC(port("A", "eth1"))
	frame, _ := packet.Serialize(pktb[20:], packet.Ethernet{Dst: aMAC, Src: dMAC, Type: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 1, Proto: packet.ProtoProbe, Src: ip("10.0.1.1"), Dst: ip("10.0.2.1")})
	if err := r.net.Send(port("D", "eth0"), frame); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 0 {
		t.Fatalf("TTL-1 packet delivered: %v", got)
	}
}

func TestIfaceCountersAdvance(t *testing.T) {
	r := buildGRERig(t)
	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 8); err != nil {
		t.Fatal(err)
	}
	rx, tx := r.ks["A"].IfaceCounters("greA")
	if rx == 0 || tx == 0 {
		t.Fatalf("greA counters rx=%d tx=%d, want both > 0", rx, tx)
	}
}

func TestLinkCutStopsTraffic(t *testing.T) {
	r := buildGRERig(t)
	if err := r.net.SetMediumUp("BC", false); err != nil {
		t.Fatal(err)
	}
	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 9); err != nil {
		t.Fatal(err)
	}
	if got := r.ks["E"].ProbeEchoes(); len(got) != 0 {
		t.Fatalf("traffic crossed a cut link: %v", got)
	}
	if err := r.net.SetMediumUp("BC", true); err != nil {
		t.Fatal(err)
	}
	if err := r.ks["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 10); err != nil {
		t.Fatal(err)
	}
	// Token 10 must arrive; token 9 may too — B's ARP queue legitimately
	// flushes the held packet once the link heals, as on Linux.
	got := r.ks["E"].ProbeEchoes()
	seen10 := false
	for _, tok := range got {
		if tok == 10 {
			seen10 = true
		}
	}
	if !seen10 {
		t.Fatalf("traffic did not resume: %v", got)
	}
}

func TestCatOSPortState(t *testing.T) {
	r := newRig(t)
	k := r.add("Sw", kernel.RoleSwitch, "gigabitethernet0/7", "gigabitethernet0/9")
	r.exec("Sw", `set vlan 22 name C1 mtu 1504
set vlan 22 gigabitethernet0/9
interface gigabitethernet0/7
switchport access vlan 22
switchport mode dot1q-tunnel
exit`)
	if mode, vid := k.PortModeOf("gigabitethernet0/7"); mode != kernel.ModeDot1qTunnel || vid != 22 {
		t.Fatalf("port 7: %v vid %d", mode, vid)
	}
	if mode, _ := k.PortModeOf("gigabitethernet0/9"); mode != kernel.ModeTrunk {
		t.Fatalf("port 9: %v", mode)
	}
	if name, mtu, ok := k.VLANOf(22); !ok || name != "C1" || mtu != 1504 {
		t.Fatalf("vlan 22: %q %d %v", name, mtu, ok)
	}
}

// TestCatOSContextIsPerScript pins that an `interface` context belongs
// to the ExecScript call whose line opened it: a later bare Exec of a
// `switchport` line has no context to run in.
func TestCatOSContextIsPerScript(t *testing.T) {
	r := newRig(t)
	k := r.add("Sw", kernel.RoleSwitch, "p1", "p2")
	r.exec("Sw", "interface p1")
	if _, err := k.Exec("switchport access vlan 5"); err == nil {
		t.Fatal("switchport after another script's `interface p1` succeeded; want an error outside any context")
	}
	if mode, vid := k.PortModeOf("p1"); mode != kernel.ModeUnconfigured || vid != 0 {
		t.Errorf("p1 configured by a line outside its script: %v vid %d", mode, vid)
	}
}

// TestCatOSScriptsConcurrentOnOneSwitch runs the ETH module's QinQ
// tunnel-port script on every port of one switch kernel at once, as the
// concurrent executor and a Kick-driven retry can: each script must
// configure its own port — mode and VID — and no other.
func TestCatOSScriptsConcurrentOnOneSwitch(t *testing.T) {
	const ports, rounds = 64, 10
	for round := 0; round < rounds; round++ {
		r := newRig(t)
		names := make([]string, ports)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
		}
		k := r.add("Sw", kernel.RoleSwitch, names...)
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				script := fmt.Sprintf("interface %s\nswitchport access vlan %d\nswitchport mode dot1q-tunnel\nexit", name, 100+i)
				if _, err := k.ExecScript(script); err != nil {
					t.Error(err)
				}
			}(i, name)
		}
		wg.Wait()
		for i, name := range names {
			if mode, vid := k.PortModeOf(name); mode != kernel.ModeDot1qTunnel || vid != uint16(100+i) {
				t.Fatalf("round %d: %s is %v vid %d, want dot1q-tunnel vid %d", round, name, mode, vid, 100+i)
			}
		}
	}
}

// TestAwaitProbeReplyUnderConcurrentSenders pins the self-test barrier:
// several goroutines probe at once, so all but one of them race an
// active netsim pump and only enqueue their frame; AwaitProbeReply must
// still see each one's own reply, and report a reply that cannot come
// (no such host) as missing rather than blocking. The probe log stays
// bounded while they do.
func TestAwaitProbeReplyUnderConcurrentSenders(t *testing.T) {
	r := newRig(t)
	d := r.add("D", kernel.RoleRouter, "eth0")
	a := r.add("A", kernel.RoleRouter, "eth0")
	r.connect("DA", port("D", "eth0"), port("A", "eth0"))
	d.Quiesce, a.Quiesce = r.net.Flush, r.net.Flush
	if err := d.AddAddr("eth0", pfx("10.0.0.1/24")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddAddr("eth0", pfx("10.0.0.2/24")); err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 700 // 5600 replies: past the log bound
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				token := uint32(s*each + i + 1)
				if err := d.SendProbe(ip("10.0.0.2"), token); err != nil {
					t.Error(err)
					return
				}
				if !d.AwaitProbeReply(token) {
					t.Errorf("reply to probe %d not seen", token)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := d.SendProbe(ip("10.0.0.77"), 999999); err != nil {
		t.Fatal(err)
	}
	if d.AwaitProbeReply(999999) {
		t.Error("reply reported from a host that does not exist")
	}
	if got := len(d.Probes()); got == 0 || got > 4096 {
		t.Errorf("probe log holds %d events, want a bounded recent window", got)
	}
}

package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
	"conman/internal/modules"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/nm"
)

// rid names the k-th router (1-based) with zero padding so lexicographic
// device order matches path order (the modules' initiator rule relies on
// it, as the paper's implicit ordering does on device identity). Three
// digits keep the ordering correct up to n=999 for the scale suite.
func rid(k int) core.DeviceID { return core.DeviceID(fmt.Sprintf("R%03d", k)) }

// Chain wiring convention: every router attaches to its left neighbour
// (toward customer site D) on chainLeft and to its right neighbour
// (toward site E) on chainRight. The boundary cases fall out of the same
// rule: R1's chainLeft port and Rn's chainRight port face the customer
// routers and are therefore the external edge ports.
const (
	chainLeft  = "eth0"
	chainRight = "eth1"
)

// linkSubnet returns the ISP /24 for the link between router k and k+1.
// The link index spans two octets (10.100.k.0/24 for k < 256, then
// 10.101.0.0/24, ...) so chains up to the rid naming ceiling of n=999
// get unique subnets.
func linkSubnet(k int) (left, right netip.Prefix) {
	hi, lo := 100+k>>8, k&0xff
	return pfx(fmt.Sprintf("10.%d.%d.1/24", hi, lo)), pfx(fmt.Sprintf("10.%d.%d.2/24", hi, lo))
}

// newBareBase creates the transport-and-manager core of a testbed:
// netsim, management channel, NM. A nil factory selects the in-process
// Hub; passing one (e.g. UDP sockets) runs the management plane over
// that transport instead. Customers, devices and domain knowledge are
// the caller's business.
func newBareBase(factory EndpointFactory) (*Testbed, error) {
	tb := &Testbed{
		Net: netsim.New(), NM: nm.New(),
		Devices:  make(map[core.DeviceID]*device.Device),
		Customer: make(map[core.DeviceID]*kernel.Kernel),
		factory:  factory,
	}
	if tb.factory == nil {
		tb.Hub = channel.NewHub()
		tb.factory = func(name string) (channel.Endpoint, error) {
			return tb.Hub.Endpoint(name), nil
		}
	}
	nmEP, err := tb.newEndpoint(msg.NMName)
	if err != nil {
		return nil, err
	}
	tb.NM.AttachChannel(nmEP)
	return tb, nil
}

// newLinearBase creates the shared parts of a linear-n testbed: netsim,
// management channel, NM, customer routers D and E at the ends. A nil
// factory selects the in-process Hub; passing one (e.g. UDP sockets)
// runs the management plane over that transport instead.
func newLinearBase(factory EndpointFactory) (*Testbed, error) {
	tb, err := newBareBase(factory)
	if err != nil {
		return nil, err
	}
	d, err := customerRouter(tb.Net, "D", pfx("192.168.0.1/24"), pfx("10.0.1.1/24"), ip("192.168.0.2"))
	if err != nil {
		return nil, err
	}
	e, err := customerRouter(tb.Net, "E", pfx("192.168.1.1/24"), pfx("10.0.2.1/24"), ip("192.168.1.2"))
	if err != nil {
		return nil, err
	}
	tb.Customer["D"], tb.Customer["E"] = d, e
	tb.NM.SetDomain("C1-S1", "10.0.1.0/24")
	tb.NM.SetDomain("C1-S2", "10.0.2.0/24")
	tb.NM.SetGateway("S1-gateway", "192.168.0.1")
	tb.NM.SetGateway("S2-gateway", "192.168.1.1")
	return tb, nil
}

func (tb *Testbed) startAll() error {
	for _, dev := range tb.Devices {
		ep, err := tb.newEndpoint(string(dev.ID))
		if err != nil {
			return err
		}
		dev.MA.AttachChannel(ep)
	}
	for _, dev := range tb.Devices {
		if err := dev.MA.Start(); err != nil {
			return err
		}
	}
	if err := tb.waitAnnounced(5 * time.Second); err != nil {
		return err
	}
	return tb.NM.DiscoverAll()
}

// waitAnnounced waits until every managed device's hello and topology
// report reached the NM: instantaneous on the synchronous Hub, a short
// poll on asynchronous transports (UDP).
func (tb *Testbed) waitAnnounced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for id := range tb.Devices {
			if info, ok := tb.NM.Device(id); ok && info.Hello && info.Topology.Device != "" {
				ready++
			}
		}
		if ready == len(tb.Devices) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiments: only %d/%d devices announced before timeout", ready, len(tb.Devices))
		}
		time.Sleep(time.Millisecond)
	}
}

// SettleCounters waits until the NM's message counters stop moving
// (ten identical reads 10 ms apart) or timeout passes, and returns the
// last read. Module relays keep landing after Apply returns on an
// asynchronous transport (UDP); on the synchronous Hub the counters are
// already still.
func (tb *Testbed) SettleCounters(timeout time.Duration) nm.Counters {
	deadline := time.Now().Add(timeout)
	last := tb.NM.Counters()
	for stable := 0; stable < 10 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if cur := tb.NM.Counters(); cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
	}
	return last
}

// VerifyUntil retries VerifyConnectivity every 20 ms until it passes or
// timeout passes, and returns the last error: after the counters settle,
// late floods can still be installing routes. Attempt i probes with
// token base+2i (VerifyPair also sends token+1), so an attempt never
// takes an earlier attempt's late echo for its own.
func (tb *Testbed) VerifyUntil(base uint32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for token := base; ; token += 2 {
		err := tb.VerifyConnectivity(token)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (tb *Testbed) wire(n int) error {
	if err := connect(tb.Net, "D-R1",
		netsim.PortID{Device: "D", Name: "eth0"},
		netsim.PortID{Device: rid(1), Name: chainLeft}); err != nil {
		return err
	}
	for k := 1; k < n; k++ {
		if err := connect(tb.Net, fmt.Sprintf("R%d-R%d", k, k+1),
			netsim.PortID{Device: rid(k), Name: chainRight},
			netsim.PortID{Device: rid(k + 1), Name: chainLeft}); err != nil {
			return err
		}
	}
	return connect(tb.Net, "Rn-E",
		netsim.PortID{Device: rid(n), Name: chainRight},
		netsim.PortID{Device: "E", Name: "eth0"})
}

// BuildLinearGRE builds a chain of n >= 3 routers with GRE modules at the
// ends, for the Table VI GRE row (messages: 3n+2 sent, 2n+2 received).
// Without routing control modules transit routers only reach directly
// connected subnets, so the data plane forwards end-to-end at n=3 only;
// BuildLinearGREIGP opens the scenario at any n.
func BuildLinearGRE(n int) (*Testbed, error) { return BuildLinearGREOver(n, nil) }

// BuildLinearGREOver is BuildLinearGRE with the management channel
// running over the given transport (nil = in-process Hub).
func BuildLinearGREOver(n int, factory EndpointFactory) (*Testbed, error) {
	return buildLinearGRE(n, factory, false)
}

// BuildLinearGREIGP builds the GRE chain with an IGP routing control
// module (§II-F) on every router: the NM's compiled configuration then
// includes one pipe per IGP adjacency, the modules flood link state and
// install transit routes, and the tunnel forwards end-to-end at any n.
func BuildLinearGREIGP(n int) (*Testbed, error) { return BuildLinearGREIGPOver(n, nil) }

// BuildLinearGREIGPOver is BuildLinearGREIGP over the given transport
// (nil = in-process Hub).
func BuildLinearGREIGPOver(n int, factory EndpointFactory) (*Testbed, error) {
	return buildLinearGRE(n, factory, true)
}

func buildLinearGRE(n int, factory EndpointFactory, withIGP bool) (*Testbed, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: linear chain needs n >= 2, got %d", n)
	}
	tb, err := newLinearBase(factory)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= n; k++ {
		dev, err := device.New(tb.Net, rid(k), kernel.RoleRouter, "eth0", "eth1")
		if err != nil {
			return nil, err
		}
		tb.Devices[rid(k)] = dev
		edge := k == 1 || k == n
		custIface, coreIface := chainLeft, chainRight
		if k == n {
			custIface, coreIface = chainRight, chainLeft
		}

		e0 := modules.NewETH(dev.MA, "e0", false, "eth0")
		e1 := modules.NewETH(dev.MA, "e1", false, "eth1")
		if edge {
			dev.MarkExternal(custIface)
			if custIface == "eth0" {
				e0.RegisterPhysical(dev.MA, "eth0")
				e1.RegisterPhysical(dev.MA)
			} else {
				e0.RegisterPhysical(dev.MA)
				e1.RegisterPhysical(dev.MA, "eth1")
			}
		} else {
			e0.RegisterPhysical(dev.MA)
			e1.RegisterPhysical(dev.MA)
		}
		dev.AddModule(e0)
		dev.AddModule(e1)

		ispAddrs := map[string]netip.Prefix{}
		if k > 1 {
			_, right := linkSubnet(k - 1)
			ispAddrs[chainLeft] = right
		}
		if k < n {
			left, _ := linkSubnet(k)
			ispAddrs[chainRight] = left
		}
		var ips *modules.IP
		if edge {
			custAddr := pfx("192.168.0.2/24")
			if k == n {
				custAddr = pfx("192.168.1.2/24")
			}
			ipc, err := modules.NewIP(dev.MA, "ipc", "C1", map[string]netip.Prefix{custIface: custAddr})
			if err != nil {
				return nil, err
			}
			dev.AddModule(ipc)
			ips, err = modules.NewIP(dev.MA, "ips", "ISP", map[string]netip.Prefix{coreIface: ispAddrs[coreIface]})
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			ips, err = modules.NewIP(dev.MA, "ips", "ISP", ispAddrs)
			if err != nil {
				return nil, err
			}
		}
		if withIGP {
			ips.AllowConnectable(core.NameIGP)
			dev.AddModule(modules.NewIGP(dev.MA, "igp"))
		}
		dev.AddModule(ips)
		if edge {
			dev.AddModule(modules.NewGRE(dev.MA, "gre"))
		}
	}
	if err := tb.wire(n); err != nil {
		return nil, err
	}
	if err := tb.startAll(); err != nil {
		return nil, err
	}
	return tb, nil
}

// BuildLinearMPLS builds a chain of n routers: edge routers carry the
// customer IP module and MPLS; transit routers are pure LSRs (MPLS + two
// ETH modules; their link addresses live in the kernel).
func BuildLinearMPLS(n int) (*Testbed, error) { return BuildLinearMPLSOver(n, nil) }

// BuildLinearMPLSOver is BuildLinearMPLS over the given transport.
func BuildLinearMPLSOver(n int, factory EndpointFactory) (*Testbed, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: linear chain needs n >= 2, got %d", n)
	}
	tb, err := newLinearBase(factory)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= n; k++ {
		dev, err := device.New(tb.Net, rid(k), kernel.RoleRouter, "eth0", "eth1")
		if err != nil {
			return nil, err
		}
		tb.Devices[rid(k)] = dev
		edge := k == 1 || k == n
		custIface := chainLeft
		if k == n {
			custIface = chainRight
		}
		e0 := modules.NewETH(dev.MA, "e0", false, "eth0")
		e1 := modules.NewETH(dev.MA, "e1", false, "eth1")
		if edge {
			dev.MarkExternal(custIface)
		}
		if edge && custIface == "eth0" {
			e0.RegisterPhysical(dev.MA, "eth0")
			e1.RegisterPhysical(dev.MA)
		} else if edge {
			e0.RegisterPhysical(dev.MA)
			e1.RegisterPhysical(dev.MA, "eth1")
		} else {
			e0.RegisterPhysical(dev.MA)
			e1.RegisterPhysical(dev.MA)
		}
		dev.AddModule(e0)
		dev.AddModule(e1)

		// ISP link addresses (kernel-level for transit LSRs).
		if k > 1 {
			_, right := linkSubnet(k - 1)
			if err := dev.Kernel.AddAddr("eth0", right); err != nil {
				return nil, err
			}
		}
		if k < n {
			left, _ := linkSubnet(k)
			iface := "eth1"
			if err := dev.Kernel.AddAddr(iface, left); err != nil {
				return nil, err
			}
		}
		if edge {
			custAddr := pfx("192.168.0.2/24")
			if k == n {
				custAddr = pfx("192.168.1.2/24")
			}
			ipc, err := modules.NewIP(dev.MA, "ipc", "C1", map[string]netip.Prefix{custIface: custAddr})
			if err != nil {
				return nil, err
			}
			dev.AddModule(ipc)
		}
		dev.AddModule(modules.NewMPLS(dev.MA, "mpls", uint32(1000*(k+1)+1)))
	}
	if err := tb.wire(n); err != nil {
		return nil, err
	}
	if err := tb.startAll(); err != nil {
		return nil, err
	}
	return tb, nil
}

// BuildLinearVLAN builds a chain of n L2 switches with QinQ tunnel ports
// at the ends.
func BuildLinearVLAN(n int) (*Testbed, error) { return BuildLinearVLANOver(n, nil) }

// BuildLinearVLANOver is BuildLinearVLAN over the given transport.
func BuildLinearVLANOver(n int, factory EndpointFactory) (*Testbed, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: linear chain needs n >= 2, got %d", n)
	}
	tb, err := newLinearBase(factory)
	if err != nil {
		return nil, err
	}
	// L2 endpoints share one subnet.
	d, e := tb.Customer["D"], tb.Customer["E"]
	resetCustomerL2(d, pfx("192.168.5.1/24"), ip("192.168.5.2"), pfx("10.0.2.0/24"))
	resetCustomerL2(e, pfx("192.168.5.2/24"), ip("192.168.5.1"), pfx("10.0.1.0/24"))
	tb.NM.SetGateway("S1-gateway", "192.168.5.1")
	tb.NM.SetGateway("S2-gateway", "192.168.5.2")

	for k := 1; k <= n; k++ {
		edge := k == 1 || k == n
		custIface := chainLeft
		if k == n {
			custIface = chainRight
		}
		dev, err := device.New(tb.Net, rid(k), kernel.RoleSwitch, "eth0", "eth1")
		if err != nil {
			return nil, err
		}
		tb.Devices[rid(k)] = dev
		eth := modules.NewETH(dev.MA, "eth", true, "eth0", "eth1")
		if edge {
			dev.MarkExternal(custIface)
			eth.RegisterPhysical(dev.MA, custIface)
		} else {
			eth.RegisterPhysical(dev.MA)
		}
		dev.AddModule(eth)
		dev.AddModule(modules.NewVLAN(dev.MA, "vlan", 22, "C1", 1504))
	}
	if err := tb.wire(n); err != nil {
		return nil, err
	}
	if err := tb.startAll(); err != nil {
		return nil, err
	}
	return tb, nil
}

// resetCustomerL2 rewires a customer router for the shared-subnet L2
// scenario (replacing the defaults newLinearBase installed).
func resetCustomerL2(k *kernel.Kernel, uplink netip.Prefix, peer netip.Addr, remoteSite netip.Prefix) {
	k.DelRoutes("main", "eth0")
	_ = k.AddAddr("eth0", uplink)
	_ = k.AddRoute("", kernel.Route{Dst: remoteSite, Via: peer, Dev: "eth0", MPLSKey: -1})
}

// LinearGoal is the site-to-site goal on a linear chain.
func LinearGoal(n int, tagClassified bool) nm.Goal {
	fromMod, toMod := core.ModuleID("e0"), core.ModuleID("e1")
	if tagClassified {
		fromMod, toMod = "eth", "eth"
	}
	return nm.Goal{
		From:          core.Ref(core.NameETH, rid(1), fromMod),
		To:            core.Ref(core.NameETH, rid(n), toMod),
		FromDomain:    "C1-S1",
		ToDomain:      "C1-S2",
		FromGateway:   "S1-gateway",
		ToGateway:     "S2-gateway",
		TrafficDomain: "C1",
		TagClassified: tagClassified,
	}
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§III), plus the data-plane, codec and channel ablations.
// Run with:
//
//	go test -bench=. -benchmem
//
// Scale and end-to-end performance are not measured here: that is the
// benchmark module in bench/ (see bench/README.md).
package conman_test

import (
	"fmt"
	"net/netip"
	"testing"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/experiments"
	"conman/internal/kernel"
	"conman/internal/legacy"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/nm"
	"conman/internal/packet"
)

// ---------------------------------------------------------------------------
// Tables

func BenchmarkTable3ShowPotential(b *testing.B) {
	tb, err := experiments.BuildFig4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.NM.ShowPotential("A"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Count(b *testing.B) {
	// The counting itself (script building measured once in Fig benches).
	today := legacy.TodayGRE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = legacy.Count(today)
	}
}

func BenchmarkTable6Messages(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.Table6([]int{n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figures

func BenchmarkFig5Graph(b *testing.B) {
	tb, err := experiments.BuildFig4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.BuildGraph(tb.NM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Prune(b *testing.B) {
	tb, err := experiments.BuildFig4()
	if err != nil {
		b.Fatal(err)
	}
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		b.Fatal(err)
	}
	goal := experiments.Fig4Goal()
	spec := nm.FindSpec{From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.FindPaths(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaths9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Paths9()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Paths) != 9 {
			b.Fatalf("got %d paths", len(res.Paths))
		}
	}
}

func BenchmarkFig7ConfigureGRE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8ConfigureMPLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ConfigureVLAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

func BenchmarkPathFinderPruning(b *testing.B) {
	tb, err := experiments.BuildFig4()
	if err != nil {
		b.Fatal(err)
	}
	g, err := nm.BuildGraph(tb.NM)
	if err != nil {
		b.Fatal(err)
	}
	goal := experiments.Fig4Goal()
	for _, cfg := range []struct {
		name     string
		noDomain bool
	}{
		{"with-domain-pruning", false},
		{"without-domain-pruning", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			spec := nm.FindSpec{
				From: goal.From, To: goal.To, TrafficDomain: goal.TrafficDomain,
				DisableDomainPruning: cfg.noDomain,
			}
			var paths int
			for i := 0; i < b.N; i++ {
				ps, _, err := g.FindPaths(spec)
				if err != nil {
					b.Fatal(err)
				}
				paths = len(ps)
			}
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

func BenchmarkChannelUDPvsFlood(b *testing.B) {
	b.Run("udp", func(b *testing.B) {
		net := channel.NewUDPNetworkConfig(channel.Config{})
		a, err := net.Endpoint("A")
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		nmEP, err := net.Endpoint(msg.NMName)
		if err != nil {
			b.Fatal(err)
		}
		defer nmEP.Close()
		got := make(chan struct{}, 1)
		nmEP.SetHandler(func(e msg.Envelope) { got <- struct{}{} })
		a.SetHandler(func(msg.Envelope) {})
		env := msg.MustNew(msg.TypeHello, "A", msg.NMName, 1, msg.Hello{Device: "A"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Send(env); err != nil {
				b.Fatal(err)
			}
			<-got
		}
	})
	b.Run("flood-3hop", func(b *testing.B) {
		net := netsim.New()
		nodes := map[core.DeviceID]*channel.FloodNode{}
		for _, id := range []core.DeviceID{"A", "B", "C"} {
			dev := id
			k := kernel.New(dev, kernel.RoleRouter,
				func(port string, frame []byte) error {
					return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
				},
				func(port string) (packet.MAC, bool) { return packet.MAC{}, true })
			net.AddDevice(dev, k)
			ports := []string{"eth0", "eth1"}
			for _, p := range ports {
				if _, err := net.AddPort(dev, p); err != nil {
					b.Fatal(err)
				}
				k.AddPhysical(p)
			}
			node := channel.NewFloodNode(dev,
				func(port string, frame []byte) error {
					return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
				},
				func() []string { return ports })
			k.RegisterEtherType(packet.EtherTypeMgmt, node.HandleMgmtFrame)
			nodes[id] = node
		}
		if _, err := net.Connect("ab", netsim.PortID{Device: "A", Name: "eth1"}, netsim.PortID{Device: "B", Name: "eth0"}); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Connect("bc", netsim.PortID{Device: "B", Name: "eth1"}, netsim.PortID{Device: "C", Name: "eth0"}); err != nil {
			b.Fatal(err)
		}
		var got int
		nodes["C"].Endpoint("C").SetHandler(func(msg.Envelope) { got++ })
		nodes["B"].Endpoint("B").SetHandler(func(msg.Envelope) {})
		a := nodes["A"].Endpoint("A")
		a.SetHandler(func(msg.Envelope) {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Send(msg.MustNew(msg.TypeHello, "A", "C", uint64(i), nil)); err != nil {
				b.Fatal(err)
			}
		}
		if got != b.N {
			b.Fatalf("delivered %d of %d", got, b.N)
		}
	})
}

func BenchmarkDataPlaneForwarding(b *testing.B) {
	scenarios := []struct {
		name string
		cfg  func() (*experiments.Testbed, error)
		pref string
		vlan bool
	}{
		{"gre", experiments.BuildFig4, "GRE-IP tunnel", false},
		{"mpls", experiments.BuildFig4, "MPLS", false},
		{"vlan", experiments.BuildFig9, "VLAN tunnel", true},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			tb, err := sc.cfg()
			if err != nil {
				b.Fatal(err)
			}
			goal := experiments.Fig4Goal()
			if sc.vlan {
				goal = experiments.Fig9Goal()
			}
			if _, _, err := experiments.ConfigureVPN(tb, goal, sc.pref); err != nil {
				b.Fatal(err)
			}
			d := tb.Customer["D"]
			src, dst := netip.MustParseAddr("10.0.1.1"), netip.MustParseAddr("10.0.2.1")
			// Warm ARP caches.
			if err := d.SendProbeFrom(src, dst, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.SendProbeFrom(src, dst, uint32(i+10)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// The kernel keeps a bounded window of probe events, so check
			// the last probe sent rather than counting all b.N.
			last, delivered := uint32(b.N+9), false
			for _, tok := range tb.Customer["E"].ProbeEchoes() {
				delivered = delivered || tok == last
			}
			if !delivered {
				b.Fatalf("last of %d probes not delivered", b.N)
			}
		})
	}
}

func BenchmarkPacketCodec(b *testing.B) {
	inner, _ := packet.Serialize(nil,
		packet.IPv4{TTL: 64, Proto: packet.ProtoProbe,
			Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1")},
		packet.Probe{Op: packet.ProbeEcho, Token: 1})
	gre := packet.GRE{KeyPresent: true, Key: 2001, SeqPresent: true, Seq: 1, ChecksumPresent: true, Proto: packet.EtherTypeIPv4}
	outer := packet.IPv4{TTL: 64, Proto: packet.ProtoGRE,
		Src: netip.MustParseAddr("204.9.168.1"), Dst: netip.MustParseAddr("204.9.169.1")}
	eth := packet.Ethernet{Type: packet.EtherTypeIPv4}
	b.Run("serialize-gre-stack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := packet.Serialize(inner, eth, outer, gre); err != nil {
				b.Fatal(err)
			}
		}
	})
	frame, _ := packet.Serialize(inner, eth, outer, gre)
	b.Run("decode-gre-stack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := packet.Decode(frame, packet.LayerTypeEthernet); err != nil {
				b.Fatal(err)
			}
		}
	})
}

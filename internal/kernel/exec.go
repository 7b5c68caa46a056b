package kernel

import (
	"fmt"
	"net/netip"
	"path"
	"strconv"
	"strings"
)

// Exec parses and applies one device-level configuration line in the
// dialects the paper's figures use: Linux iproute2/ifconfig/sysctl
// (Fig 7a), the mpls-linux tool (Fig 8a) and Cisco CatOS (Fig 9a).
// Comment and blank lines are ignored. The returned string is the
// command's output (e.g. the NHLFE key line that Fig 8a extracts with
// `grep key | cut -c 17-26`). A line runs in no CatOS `interface`
// context: only a script's own `interface` line opens one (ExecScript).
func (k *Kernel) Exec(line string) (string, error) {
	var ctx string
	return k.exec(line, &ctx)
}

// ExecScript runs every line of a multi-line script, stopping at the first
// error. It returns the concatenated outputs. The CatOS `interface`
// context an `interface` line opens lasts until `exit` or the script's
// end and belongs to this call alone, so scripts running concurrently on
// one kernel never configure each other's ports.
func (k *Kernel) ExecScript(script string) (string, error) {
	var outs []string
	var ctx string
	for _, line := range strings.Split(script, "\n") {
		out, err := k.exec(line, &ctx)
		if err != nil {
			return strings.Join(outs, "\n"), err
		}
		if out != "" {
			outs = append(outs, out)
		}
	}
	return strings.Join(outs, "\n"), nil
}

// exec runs one line; ctx is the calling script's CatOS `interface`
// context, which `interface` sets and `exit` clears.
func (k *Kernel) exec(line string, ctx *string) (string, error) {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") || trimmed == "#!/bin/bash" {
		return "", nil
	}
	k.mu.Lock()
	k.execLog = append(k.execLog, trimmed)
	k.mu.Unlock()

	f := strings.Fields(trimmed)
	out, err := k.exec1(trimmed, f, ctx)
	if err != nil {
		return "", fmt.Errorf("kernel[%s]: %q: %w", k.dev, trimmed, err)
	}
	return out, nil
}

func (k *Kernel) exec1(line string, f []string, ctx *string) (string, error) {
	switch f[0] {
	case "insmod":
		if len(f) != 2 {
			return "", fmt.Errorf("usage: insmod <path>")
		}
		name := strings.TrimSuffix(path.Base(f[1]), ".ko")
		k.mu.Lock()
		k.modules[name] = true
		if name == "mpls" || name == "mpls4" {
			k.mpls.loaded = true
		}
		k.mu.Unlock()
		return "", nil

	case "modprobe":
		if len(f) != 2 {
			return "", fmt.Errorf("usage: modprobe <module>")
		}
		k.mu.Lock()
		k.modules[f[1]] = true
		if f[1] == "mpls" || f[1] == "mpls4" {
			k.mpls.loaded = true
		}
		k.mu.Unlock()
		return "", nil

	case "echo":
		return "", k.execEcho(line, f)

	case "ifconfig":
		if len(f) < 3 {
			return "", fmt.Errorf("usage: ifconfig <iface> <addr>")
		}
		addr, err := netip.ParseAddr(f[2])
		if err != nil {
			return "", err
		}
		bits := 32
		for i := 3; i+1 < len(f); i++ {
			if f[i] == "netmask" {
				m, err := netip.ParseAddr(f[i+1])
				if err != nil {
					return "", err
				}
				bits = maskBits(m)
			}
		}
		return "", k.AddAddr(f[1], netip.PrefixFrom(addr, bits))

	case "ip":
		return k.execIP(f)

	case "mpls":
		return k.execMPLS(f)

	// ----- CatOS dialect -----
	case "set":
		return "", k.execCatOSSet(f)
	case "interface":
		if len(f) != 2 {
			return "", fmt.Errorf("usage: interface <port>")
		}
		*ctx = f[1]
		return "", nil
	case "switchport":
		return "", k.execCatOSSwitchport(f, *ctx)
	case "vlan":
		// `vlan dot1q tag native`
		if len(f) == 4 && f[1] == "dot1q" && f[2] == "tag" && f[3] == "native" {
			k.mu.Lock()
			k.bridge.tagNative = true
			k.mu.Unlock()
			return "", nil
		}
		return "", fmt.Errorf("unsupported vlan command")
	case "exit", "end":
		*ctx = ""
		return "", nil
	}
	return "", fmt.Errorf("unsupported command %q", f[0])
}

func maskBits(m netip.Addr) int {
	b := m.As4()
	bits := 0
	for _, x := range b {
		for i := 7; i >= 0; i-- {
			if x&(1<<i) != 0 {
				bits++
			}
		}
	}
	return bits
}

// execEcho handles the two sysctl/rt_tables idioms of Fig 7a:
//
//	echo 1 > /proc/sys/net/ipv4/ip_forward
//	echo 202 tun-1-2 >> /etc/iproute2/rt_tables
func (k *Kernel) execEcho(line string, f []string) error {
	if strings.Contains(line, "/proc/sys/net/ipv4/ip_forward") {
		if len(f) >= 2 && f[1] == "1" {
			k.SetIPForward(true)
			return nil
		}
		k.SetIPForward(false)
		return nil
	}
	if strings.Contains(line, "/proc/sys/net/ipv4/conf") && strings.Contains(line, "proxy_arp") {
		k.SetProxyARP(len(f) >= 2 && f[1] == "1")
		return nil
	}
	if strings.Contains(line, "rt_tables") {
		if len(f) < 3 {
			return fmt.Errorf("usage: echo <num> <name> >> /etc/iproute2/rt_tables")
		}
		num, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("table number: %w", err)
		}
		k.RegisterTable(num, f[2])
		return nil
	}
	return fmt.Errorf("unsupported echo target")
}

func (k *Kernel) execIP(f []string) (string, error) {
	if len(f) < 2 {
		return "", fmt.Errorf("truncated ip command")
	}
	switch f[1] {
	case "tunnel":
		return "", k.execIPTunnel(f)
	case "rule":
		return "", k.execIPRule(f)
	case "route":
		return "", k.execIPRoute(f)
	}
	return "", fmt.Errorf("unsupported ip subcommand %q", f[1])
}

// execIPTunnel: ip tunnel add name greA mode gre remote R local L
// [ikey N] [okey N] [icsum] [ocsum] [iseq] [oseq]
// (also accepts `ip tunnel add greA mode gre ...`).
func (k *Kernel) execIPTunnel(f []string) error {
	if len(f) < 4 || f[2] != "add" {
		return fmt.Errorf("only `ip tunnel add` is supported")
	}
	args := f[3:]
	var t GRETunnel
	if args[0] == "name" {
		if len(args) < 2 {
			return fmt.Errorf("missing tunnel name")
		}
		t.Name = args[1]
		args = args[2:]
	} else {
		t.Name = args[0]
		args = args[1:]
	}
	mode := ""
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "mode":
			i++
			if i >= len(args) {
				return fmt.Errorf("missing mode")
			}
			mode = args[i]
		case "remote":
			i++
			a, err := netip.ParseAddr(args[i])
			if err != nil {
				return err
			}
			t.Remote = a
		case "local":
			i++
			a, err := netip.ParseAddr(args[i])
			if err != nil {
				return err
			}
			t.Local = a
		case "ikey":
			i++
			v, err := strconv.ParseUint(args[i], 10, 32)
			if err != nil {
				return err
			}
			t.HasIKey, t.IKey = true, uint32(v)
		case "okey":
			i++
			v, err := strconv.ParseUint(args[i], 10, 32)
			if err != nil {
				return err
			}
			t.HasOKey, t.OKey = true, uint32(v)
		case "icsum":
			t.ICsum = true
		case "ocsum":
			t.OCsum = true
		case "iseq":
			t.ISeq = true
		case "oseq":
			t.OSeq = true
		case "ttl", "tos":
			i++ // accepted, ignored: the abstraction hides these
		default:
			return fmt.Errorf("unknown tunnel option %q", args[i])
		}
	}
	if mode != "gre" {
		return fmt.Errorf("only mode gre is supported, got %q", mode)
	}
	if !t.Remote.IsValid() || !t.Local.IsValid() {
		return fmt.Errorf("tunnel needs remote and local")
	}
	k.mu.Lock()
	loaded := k.modules["ip_gre"]
	k.mu.Unlock()
	if !loaded {
		return fmt.Errorf("ip_gre module not loaded (insmod first)")
	}
	_, err := k.AddGRETunnel(t)
	return err
}

// execIPRule: ip rule add to PREFIX table T | ip rule add iff DEV table T
// ("iff" is the paper's spelling; "iif" is accepted too).
func (k *Kernel) execIPRule(f []string) error {
	if len(f) < 3 || f[2] != "add" {
		return fmt.Errorf("only `ip rule add` is supported")
	}
	var r PolicyRule
	args := f[3:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "to":
			i++
			p, err := parsePrefixOrAddr(args[i])
			if err != nil {
				return err
			}
			r.To = p
		case "iff", "iif":
			i++
			r.IIF = args[i]
		case "table":
			i++
			r.Table = args[i]
		default:
			return fmt.Errorf("unknown rule option %q", args[i])
		}
	}
	if r.Table == "" {
		return fmt.Errorf("rule needs a table")
	}
	return k.AddRule(r)
}

// execIPRoute: ip route add [to] (default|PREFIX|ADDR)
// [via ADDR] [dev DEV] [table T] [nexthop DEV ADDR] [mpls KEY]
func (k *Kernel) execIPRoute(f []string) error {
	if len(f) < 4 || f[2] != "add" {
		return fmt.Errorf("only `ip route add` is supported")
	}
	args := f[3:]
	if args[0] == "to" {
		args = args[1:]
	}
	var rt Route
	rt.MPLSKey = -1
	table := ""
	if args[0] != "default" {
		p, err := parsePrefixOrAddr(args[0])
		if err != nil {
			return err
		}
		rt.Dst = p
	}
	args = args[1:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "via":
			i++
			a, err := netip.ParseAddr(args[i])
			if err != nil {
				return err
			}
			rt.Via = a
		case "dev":
			i++
			rt.Dev = args[i]
		case "table":
			i++
			table = args[i]
		case "mpls":
			i++
			key, err := parseKey(args[i])
			if err != nil {
				return err
			}
			rt.MPLSKey = key
		default:
			return fmt.Errorf("unknown route option %q", args[i])
		}
	}
	return k.AddRoute(table, rt)
}

func parsePrefixOrAddr(s string) (netip.Prefix, error) {
	if strings.Contains(s, "/") {
		return netip.ParsePrefix(s)
	}
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(a, a.BitLen()), nil
}

func parseKey(s string) (int, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseInt(s[2:], 16, 64)
		return int(v), err
	}
	v, err := strconv.Atoi(s)
	return v, err
}

// execMPLS handles the mpls-linux tool dialect of Fig 8a.
func (k *Kernel) execMPLS(f []string) (string, error) {
	k.mu.Lock()
	loaded := k.mpls.loaded
	k.mu.Unlock()
	if !loaded {
		return "", fmt.Errorf("mpls modules not loaded (modprobe mpls; modprobe mpls4)")
	}
	if len(f) < 2 {
		return "", fmt.Errorf("truncated mpls command")
	}
	switch f[1] {
	case "labelspace":
		// mpls labelspace set dev eth2 labelspace 0
		var dev string
		space := -1
		for i := 2; i < len(f); i++ {
			switch f[i] {
			case "set":
			case "dev":
				i++
				dev = f[i]
			case "labelspace":
				i++
				v, err := strconv.Atoi(f[i])
				if err != nil {
					return "", err
				}
				space = v
			}
		}
		if dev == "" || space < 0 {
			return "", fmt.Errorf("usage: mpls labelspace set dev <dev> labelspace <n>")
		}
		return "", k.SetLabelSpace(dev, space)

	case "ilm":
		// mpls ilm add label gen 10001 labelspace 0
		var label uint64
		space := 0
		seenLabel := false
		for i := 2; i < len(f); i++ {
			switch f[i] {
			case "add":
			case "label":
				i += 2 // skip "gen"
				v, err := strconv.ParseUint(f[i], 10, 32)
				if err != nil {
					return "", err
				}
				label, seenLabel = v, true
			case "labelspace":
				i++
				v, err := strconv.Atoi(f[i])
				if err != nil {
					return "", err
				}
				space = v
			}
		}
		if !seenLabel {
			return "", fmt.Errorf("ilm needs `label gen <n>`")
		}
		k.AddILM(uint32(label), space)
		return "", nil

	case "nhlfe":
		// mpls nhlfe add key 0 [mtu 1500] instructions [push gen 2001]
		// nexthop eth2 ipv4 204.9.168.2
		n := NHLFE{}
		for i := 2; i < len(f); i++ {
			switch f[i] {
			case "add", "instructions":
			case "key":
				i++ // `key 0` requests allocation
			case "mtu":
				i++
				v, err := strconv.Atoi(f[i])
				if err != nil {
					return "", err
				}
				n.MTU = v
			case "push":
				i += 2 // skip "gen"
				v, err := strconv.ParseUint(f[i], 10, 32)
				if err != nil {
					return "", err
				}
				n.PushLabels = append(n.PushLabels, uint32(v))
			case "nexthop":
				i++
				n.NexthopDev = f[i]
				i++
				if f[i] != "ipv4" {
					return "", fmt.Errorf("nexthop needs `ipv4 <addr>`")
				}
				i++
				a, err := netip.ParseAddr(f[i])
				if err != nil {
					return "", err
				}
				n.NexthopIP = a
			default:
				return "", fmt.Errorf("unknown nhlfe token %q", f[i])
			}
		}
		if n.NexthopDev == "" {
			return "", fmt.Errorf("nhlfe needs a nexthop")
		}
		key := k.AddNHLFE(n)
		// Output formatted so Fig 8a's `grep key | cut -c 17-26`
		// extracts the 0x-prefixed key.
		return fmt.Sprintf("NHLFE entry key 0x%08x mtu %d", key, n.MTU), nil

	case "xc":
		// mpls xc add ilm label gen 10001 ilm labelspace 0 nhlfe key $KEY
		var label uint64
		space := 0
		nhlfeKey := -1
		seenLabel := false
		for i := 2; i < len(f); i++ {
			switch f[i] {
			case "add", "ilm":
			case "label":
				i += 2
				v, err := strconv.ParseUint(f[i], 10, 32)
				if err != nil {
					return "", err
				}
				label, seenLabel = v, true
			case "labelspace":
				i++
				v, err := strconv.Atoi(f[i])
				if err != nil {
					return "", err
				}
				space = v
			case "nhlfe":
				i += 2 // skip "key"
				v, err := parseKey(f[i])
				if err != nil {
					return "", err
				}
				nhlfeKey = v
			}
		}
		if !seenLabel || nhlfeKey < 0 {
			return "", fmt.Errorf("xc needs ilm label and nhlfe key")
		}
		return "", k.AddXC(uint32(label), space, nhlfeKey)
	}
	return "", fmt.Errorf("unsupported mpls subcommand %q", f[1])
}

// execCatOSSet handles `set vlan N name X mtu M` and `set vlan N <port>`.
func (k *Kernel) execCatOSSet(f []string) error {
	if len(f) < 3 || f[1] != "vlan" {
		return fmt.Errorf("unsupported set command")
	}
	vid64, err := strconv.ParseUint(f[2], 10, 16)
	if err != nil {
		return fmt.Errorf("vlan id: %w", err)
	}
	vid := uint16(vid64)
	if len(f) == 4 && !strings.Contains(f[3], "=") {
		// `set vlan 22 gigabitethernet0/9`: trunk membership.
		k.SetPortTrunk(f[3], vid)
		return nil
	}
	name, mtu := "", 0
	for i := 3; i < len(f); i++ {
		switch f[i] {
		case "name":
			i++
			name = f[i]
		case "mtu":
			i++
			v, err := strconv.Atoi(f[i])
			if err != nil {
				return err
			}
			mtu = v
		default:
			// A bare trailing token is a port to add to the VLAN.
			k.SetPortTrunk(f[i], vid)
		}
	}
	k.DefineVLAN(vid, name, mtu)
	return nil
}

// execCatOSSwitchport handles `switchport access vlan N` and
// `switchport mode dot1q-tunnel` inside the `interface` context ctx.
func (k *Kernel) execCatOSSwitchport(f []string, ctx string) error {
	if ctx == "" {
		return fmt.Errorf("switchport outside `interface` context")
	}
	if len(f) >= 4 && f[1] == "access" && f[2] == "vlan" {
		vid, err := strconv.ParseUint(f[3], 10, 16)
		if err != nil {
			return err
		}
		k.mu.Lock()
		p := k.bridge.port(ctx)
		tunnel := p.Mode == ModeDot1qTunnel
		k.mu.Unlock()
		k.SetPortAccess(ctx, uint16(vid), tunnel)
		return nil
	}
	if len(f) >= 3 && f[1] == "mode" && f[2] == "dot1q-tunnel" {
		k.mu.Lock()
		p := k.bridge.port(ctx)
		vid := p.AccessVID
		k.mu.Unlock()
		k.SetPortAccess(ctx, vid, true)
		return nil
	}
	return fmt.Errorf("unsupported switchport command")
}

package modules

import (
	"fmt"
	"net/netip"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
)

// App models an application module (the paper's "<FOO,C,z>" example in
// §II-E): a service listening on a UDP port. Its role in the
// reproduction is to be the abstract endpoint of filter rules — the NM
// says "drop packets going to <FOO,C,z>", and the inspecting module
// resolves the address/port through listFieldsAndValues. Changing the
// port fires the installed triggers so dependent state (filters) is
// updated — the dependency-maintenance scenario of §II-E.
type App struct {
	device.BaseModule

	mu       sync.Mutex
	name     core.ModuleName
	addr     netip.Addr
	port     uint16   // guarded by mu
	received [][]byte // guarded by mu
}

// NewApp creates an application module listening on addr:port.
func NewApp(svc device.Services, name core.ModuleName, id core.ModuleID, addr netip.Addr, port uint16) *App {
	a := &App{
		BaseModule: device.BaseModule{
			ModRef: core.ModuleRef{Name: name, Module: id, Device: svc.Device()},
			Svc:    svc,
		},
		name: name,
		addr: addr,
		port: port,
	}
	a.bind()
	return a
}

func (a *App) bind() {
	port := a.Port()
	// The socket is module-lifetime state: App modules are never torn
	// down, and SetPort rebinds (UnregisterUDP + bind) rather than
	// deletes.
	a.Svc.Kernel().RegisterUDP(port, func(src netip.Addr, sport uint16, payload []byte) {
		a.mu.Lock()
		a.received = append(a.received, append([]byte(nil), payload...))
		a.mu.Unlock()
	})
}

// Port returns the current listening port.
func (a *App) Port() uint16 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.port
}

// Received returns payloads delivered to the app.
func (a *App) Received() [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([][]byte, len(a.received))
	copy(out, a.received)
	return out
}

// SetPort rebinds the app to a new port — "the application was started on
// some other port", the classic dependency break of §I — and fires the
// dependency triggers so the NM can update filters.
func (a *App) SetPort(port uint16) {
	a.mu.Lock()
	old := a.port
	a.port = port
	a.mu.Unlock()
	a.Svc.Kernel().UnregisterUDP(old)
	a.bind()
	a.Svc.FieldsChanged(a.Ref(), "self", map[string]string{
		"address": a.addr.String(),
		"port":    fmt.Sprintf("%d", port),
	})
}

// Abstraction implements device.Module.
func (a *App) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:      a.Ref(),
		Kind:     core.KindApplication,
		Down:     core.PipeSpec{Connectable: []core.ModuleName{core.NameUDP, core.NameIPv4}},
		Peerable: []core.ModuleName{a.name},
		Switch: core.SwitchSpec{
			Modes:       []core.SwitchMode{core.SwUpDown, core.SwDownUp},
			StateSource: core.StateLocal,
		},
	}
}

// Actual implements device.Module.
func (a *App) Actual() core.ModuleState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return core.ModuleState{
		Ref: a.Ref(),
		LowLevel: map[string]string{
			"address": a.addr.String(),
			"port":    fmt.Sprintf("%d", a.port),
			"proto":   "udp",
		},
	}
}

// ListFields implements device.Module: this is what inspecting modules
// ask for when resolving abstract filter rules (§II-E).
func (a *App) ListFields(component string) (map[string]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return map[string]string{
		"address": a.addr.String(),
		"port":    fmt.Sprintf("%d", a.port),
		"proto":   "udp",
	}, nil
}

package experiments

import (
	"context"

	"conman/internal/core"
	"conman/internal/nm"
)

// StartDaemon runs an autonomous reconciliation daemon over the
// testbed's NM on its own goroutine and returns it with a stop
// function. The daemon performs an initial reconcile immediately, so
// callers typically WaitConverged before injecting faults.
func (tb *Testbed) StartDaemon(cfg nm.DaemonConfig) (*nm.Daemon, func()) {
	d := nm.NewDaemon(tb.NM, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Run(ctx)
	}()
	return d, func() {
		cancel()
		<-done
	}
}

// KillDevice simulates a device dying: its management endpoint is
// detached first, so NM calls to it fail immediately instead of timing
// out, and then every wire touching it is cut, so its neighbours see
// carrier loss and re-report topology. The order matters: the detach
// raises no event, so a daemon woken by the first re-report must
// already find the box silent, or it could converge with the device
// still reachable and never look again.
func (tb *Testbed) KillDevice(id core.DeviceID) error {
	if tb.Hub != nil {
		tb.Hub.Detach(string(id))
	}
	for _, name := range tb.Net.Media() {
		m, ok := tb.Net.Medium(name)
		if !ok || !m.Up() {
			continue
		}
		touches := false
		for _, p := range m.Ports() {
			if p.Device == id {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		if err := tb.Net.SetMediumUp(name, false); err != nil {
			return err
		}
	}
	return nil
}

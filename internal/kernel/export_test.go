package kernel

// Probes returns the probe events delivered locally (the most recent
// probeLogMax are kept).
func (k *Kernel) Probes() []ProbeEvent {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]ProbeEvent(nil), k.probes...)
}

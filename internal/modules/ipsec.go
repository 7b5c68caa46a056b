package modules

import (
	"encoding/binary"
	"fmt"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
)

// The IPsec/IKE pair implements the paper's Fig 1 and §II-F example of a
// data module depending on externally generated state: the IPSec module
// advertises that its security features need keying material it cannot
// derive itself (Security.StateDependency with token "ipsec-keys"), and
// the IKE control module advertises ProvidesState for that token. The NM
// matches the two without understanding either protocol: it simply names
// the provider in the DependencyChoice when creating the IPSec pipe.

// IPSecKeyToken is the dependency token linking IPSec to IKE.
const IPSecKeyToken = "ipsec-keys"

// IKE is a control module (§II-F): it does not fit the data-plane
// abstraction; it advertises the state it can provide and negotiates
// session keys with its peer IKE module over the management channel
// (standing in for its UDP/500 exchange).
type IKE struct {
	device.BaseModule
	sa *device.Exchange // "ike-sa" with the peer IKE module

	mu   sync.Mutex
	keys map[string]uint64 // peer IKE ref -> negotiated key
}

// ikeMsg is the key negotiation convey body.
type ikeMsg struct {
	Nonce uint64 `json:"nonce"`
}

// NewIKE creates an IKE control module.
func NewIKE(svc device.Services, id core.ModuleID) *IKE {
	k := &IKE{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameIKE, svc.Device(), id),
			Svc:    svc,
		},
		keys: make(map[string]uint64),
	}
	k.sa = device.Pairwise("ike-sa", k.offer, k.accept)
	svc.Declare(k.Ref(), k.sa)
	return k
}

// Abstraction implements device.Module: a control module advertising the
// dependencies it can satisfy (§II-F's "LCP advertises that it can
// satisfy dependency X" pattern).
func (k *IKE) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:           k.Ref(),
		Kind:          core.KindControl,
		Down:          core.PipeSpec{Connectable: []core.ModuleName{core.NameUDP, core.NameIPv4}},
		Peerable:      []core.ModuleName{core.NameIKE},
		ProvidesState: []string{IPSecKeyToken},
	}
}

// Actual implements device.Module.
func (k *IKE) Actual() core.ModuleState {
	k.mu.Lock()
	defer k.mu.Unlock()
	st := core.ModuleState{Ref: k.Ref(), LowLevel: map[string]string{}}
	for peer, key := range k.keys {
		st.LowLevel["sa:"+peer] = fmt.Sprintf("key=%#x", key)
	}
	return st
}

// Negotiate establishes keying material with a peer IKE module (invoked
// by the co-located IPSec module when its pipe dependency names this IKE
// instance as provider). The initiator derives the key from both module
// references so both sides converge deterministically; the responder's
// arrives with the initiator's offer.
func (k *IKE) Negotiate(peer core.ModuleRef) (uint64, error) {
	k.sa.With(peer)
	k.mu.Lock()
	defer k.mu.Unlock()
	if key, ok := k.keys[peer.String()]; ok {
		return key, nil
	}
	return 0, device.ErrPending
}

func deriveKey(a, b core.ModuleRef) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range []string{a.String(), b.String()} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}

// offer is the ike-sa offer: the key held for peer, derived here when
// this end initiates.
func (k *IKE) offer(peer core.ModuleRef) (ikeMsg, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	key, ok := k.keys[peer.String()]
	if !ok {
		key = deriveKey(k.Ref(), peer)
		k.keys[peer.String()] = key
	}
	return ikeMsg{Nonce: key}, nil
}

// accept adopts the peer's key.
func (k *IKE) accept(peer core.ModuleRef, m ikeMsg) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys[peer.String()] = m.Nonce
	return nil
}

// ---------------------------------------------------------------------------

// IPSec is a data module offering confidentiality/integrity whose keying
// state must be provided externally (Fig 1's dependency arrow to IKE).
type IPSec struct {
	device.BaseModule

	mu       sync.Mutex
	provider core.ModuleRef // IKE instance chosen by the NM
	saKeys   map[string]uint64
}

// NewIPSec creates an IPSec module.
func NewIPSec(svc device.Services, id core.ModuleID) *IPSec {
	return &IPSec{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameIPSec, svc.Device(), id),
			Svc:    svc,
		},
		saKeys: make(map[string]uint64),
	}
}

// Abstraction implements device.Module: note the security state
// dependency — the module can secure traffic but cannot key itself.
func (s *IPSec) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:      s.Ref(),
		Kind:     core.KindData,
		Up:       core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4}},
		Down:     core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4}},
		Peerable: []core.ModuleName{core.NameIPSec},
		Switch: core.SwitchSpec{
			Modes:       []core.SwitchMode{core.SwUpDown, core.SwDownUp},
			StateSource: core.StateLocal,
		},
		Security: core.SecuritySpec{
			Integrity:       true,
			Authenticity:    true,
			Confidentiality: true,
			StateDependency: &core.Dependency{
				Kind:        core.DepExternalState,
				Token:       IPSecKeyToken,
				Description: "keying material from a control module (IKE)",
			},
		},
	}
}

// PipeAttached implements device.Module: the up-pipe's dependency choice
// must name an IKE provider; the module then asks it for keys.
func (s *IPSec) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	if side != device.SideLower {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find the provider the NM chose for our keying dependency.
	for _, c := range p.Satisfy {
		if c.Token == IPSecKeyToken && c.Provider != "" {
			ref, err := core.ParseModuleRef(c.Provider)
			if err != nil {
				return fmt.Errorf("%s: bad provider %q: %v", s.Ref(), c.Provider, err)
			}
			s.provider = ref
		}
	}
	if s.provider.IsZero() {
		return fmt.Errorf("%s: pipe created without an %s provider", s.Ref(), IPSecKeyToken)
	}
	return nil
}

// InstallSwitchRule implements device.Module: binds the SA together once
// IKE has keys for the peer's IKE instance. The returned undo drops the
// SA key.
func (s *IPSec) InstallSwitchRule(r *device.SwitchRuleInstance) (func(), error) {
	up, side, ok := s.OwnPipe(r.Rule.From)
	if !ok || side != device.SideLower {
		up, side, ok = s.OwnPipe(r.Rule.To)
	}
	if !ok || side != device.SideLower {
		return nil, fmt.Errorf("%s: switch rule pipes not attached", s.Ref())
	}
	s.mu.Lock()
	provider := s.provider
	s.mu.Unlock()
	ike, ok := s.Svc.LocalModule(provider.Module)
	if !ok {
		return nil, fmt.Errorf("%s: provider %s not on this device", s.Ref(), provider)
	}
	ikeMod, ok := ike.(*IKE)
	if !ok {
		return nil, fmt.Errorf("%s: provider %s is not an IKE module", s.Ref(), provider)
	}
	// The peer's IKE instance lives on the peer IPSec module's device,
	// conventionally with the same module id as ours.
	peerIKE := core.Ref(core.NameIKE, up.LowerPeer.Device, provider.Module)
	key, err := ikeMod.Negotiate(peerIKE)
	if err != nil {
		return nil, err
	}
	peer := up.LowerPeer.String()
	s.mu.Lock()
	s.saKeys[peer] = key
	s.mu.Unlock()
	s.Svc.Kick()
	return func() {
		s.mu.Lock()
		delete(s.saKeys, peer)
		s.mu.Unlock()
	}, nil
}

// SAKey reports the security association key for a peer (tests/operators).
func (s *IPSec) SAKey(peer core.ModuleRef) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.saKeys[peer.String()]
	return k, ok
}

// Actual implements device.Module.
func (s *IPSec) Actual() core.ModuleState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := core.ModuleState{Ref: s.Ref(), LowLevel: map[string]string{}}
	for peer, key := range s.saKeys {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], key)
		st.LowLevel["sa-key:"+peer] = fmt.Sprintf("%x", kb)
	}
	if !s.provider.IsZero() {
		st.LowLevel["key-provider"] = s.provider.String()
	}
	return st
}

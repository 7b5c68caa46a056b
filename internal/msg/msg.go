// Package msg defines the management-channel wire protocol: JSON-encoded
// envelopes carrying the CONMan primitives (Table I) between the network
// manager and the management agents (MAs) of devices, plus the
// module-to-module relays (conveyMessage, listFieldsAndValues) that always
// pass through the NM because the management channel only connects devices
// to the NM (paper §II-D.1.d).
package msg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"conman/internal/core"
)

// NMName is the well-known channel name of the network manager.
const NMName = "nm"

// Type discriminates envelope payloads.
type Type string

const (
	// Device -> NM, unsolicited.
	TypeHello    Type = "hello"    // device boot announcement
	TypeTopology Type = "topology" // physical connectivity report
	TypeNotify   Type = "notify"   // module event (e.g. lsp-established)
	TypeTrigger  Type = "trigger"  // installed trigger fired (§II-E)

	// NM -> device requests and their responses. Configuration (create
	// and delete) rides only in a command batch (TypeCommandBatchReq).
	TypeShowPotentialReq   Type = "showPotential"
	TypeShowPotentialResp  Type = "showPotential.resp"
	TypeShowActualReq      Type = "showActual"
	TypeShowActualResp     Type = "showActual.resp"
	TypeInstallTriggerReq  Type = "installTrigger"
	TypeInstallTriggerResp Type = "installTrigger.resp"
	TypeSelfTestReq        Type = "selfTest"
	TypeSelfTestResp       Type = "selfTest.resp"

	// Module <-> module, relayed by the NM.
	TypeConvey         Type = "conveyMessage"
	TypeListFieldsReq  Type = "listFieldsAndValues"
	TypeListFieldsResp Type = "listFieldsAndValues.resp"

	// Error response to any request.
	TypeError Type = "error"
)

// Envelope is one management-channel message.
type Envelope struct {
	Type Type            `json:"type"`
	From string          `json:"from"` // device id or NMName
	To   string          `json:"to"`
	ID   uint64          `json:"id,omitempty"` // request/response correlation
	Body json.RawMessage `json:"body,omitempty"`
}

// New builds an envelope, marshalling body.
func New(t Type, from, to string, id uint64, body any) (Envelope, error) {
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return Envelope{}, fmt.Errorf("msg: marshal %s: %w", t, err)
		}
		raw = b
	}
	return Envelope{Type: t, From: from, To: to, ID: id, Body: raw}, nil
}

// MustNew is New for bodies that cannot fail to marshal.
func MustNew(t Type, from, to string, id uint64, body any) Envelope {
	e, err := New(t, from, to, id, body)
	if err != nil {
		panic(err)
	}
	return e
}

// Decode unmarshals the body into out.
func (e Envelope) Decode(out any) error {
	if err := json.Unmarshal(e.Body, out); err != nil {
		return fmt.Errorf("msg: decode %s body: %w", e.Type, err)
	}
	return nil
}

// Marshal encodes the envelope for the wire.
func (e Envelope) Marshal() ([]byte, error) { return json.Marshal(e) }

// Unmarshal decodes an envelope from the wire.
func Unmarshal(data []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("msg: unmarshal envelope: %w", err)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Bodies

// Hello announces a device to the NM.
type Hello struct {
	Device core.DeviceID `json:"device"`
}

// PortReport is one physical port in a topology report.
type PortReport struct {
	Name       string        `json:"name"`
	MAC        string        `json:"mac"`
	Attached   bool          `json:"attached"`
	PeerDevice core.DeviceID `json:"peer_device,omitempty"`
	PeerPort   string        `json:"peer_port,omitempty"`
	External   bool          `json:"external,omitempty"`
}

// Topology is a device's physical connectivity report (paper §II-D).
type Topology struct {
	Device core.DeviceID `json:"device"`
	Ports  []PortReport  `json:"ports"`
}

// ShowPotentialResp returns every module's abstraction (Table II).
type ShowPotentialResp struct {
	Modules []core.Abstraction `json:"modules"`
}

// ShowActualReq is the optional body of a showActual request. IfDigest
// names the body the requester already holds: an MA whose modules still
// render to the bytes with that digest answers Unchanged, with no
// modules. A request with no body, or no IfDigest, gets the full body.
type ShowActualReq struct {
	IfDigest string `json:"if_digest,omitempty"`
}

// ShowActualResp returns every module's actual state and its Digest,
// the SHA-256 (hex) of the JSON encoding of Modules exactly as sent.
// Unchanged replaces the modules when the request's IfDigest matched.
type ShowActualResp struct {
	Modules   []core.ModuleState `json:"modules"`
	Digest    string             `json:"digest,omitempty"`
	Unchanged bool               `json:"unchanged,omitempty"`
}

// actualBufs recycles the buffers showActual replies are encoded in: a
// reply is copied out of one once, at its final size.
var actualBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeShowActual encodes a showActual reply body, marshalling modules
// once: the digest is taken of those bytes and a full reply embeds them
// as they are, so a digest always names the bytes a requester decodes.
// A matching ifDigest yields the body-less Unchanged reply.
func EncodeShowActual(modules []core.ModuleState, ifDigest string) (json.RawMessage, error) {
	const prefix, digestKey = `{"modules":`, `,"digest":"`
	bp := actualBufs.Get().(*[]byte)
	defer actualBufs.Put(bp)
	b, err := appendModules(append((*bp)[:0], prefix...), modules)
	if err != nil {
		return nil, fmt.Errorf("msg: marshal %s: %w", TypeShowActualResp, err)
	}
	*bp = b
	sum := sha256.Sum256(b[len(prefix):])
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	if string(digest[:]) == ifDigest {
		return json.RawMessage(`{"digest":"` + ifDigest + `","unchanged":true}`), nil
	}
	out := make([]byte, 0, len(b)+len(digestKey)+len(digest)+2)
	out = append(out, b...)
	out = append(out, digestKey...)
	out = append(out, digest[:]...)
	return append(out, `"}`...), nil
}

// CreateSwitchReq is the batch item body (CommandItem.Switch) that
// installs a switch rule. The NM resolves abstract classifier/gateway
// tokens it owns (address domains, §III-C) into MatchResolved/ViaResolved
// so no extra round-trips are needed.
type CreateSwitchReq struct {
	Rule          core.SwitchRule `json:"rule"`
	MatchResolved string          `json:"match_resolved,omitempty"`
	ViaResolved   string          `json:"via_resolved,omitempty"`
}

// CreateFilterReq is the batch item body (CommandItem.Filter) that
// installs an abstract filter rule (§II-E).
type CreateFilterReq struct {
	Rule core.FilterRule `json:"rule"`
}

// DeleteReq is the batch item body (CommandItem.Delete) that deletes a
// component.
type DeleteReq struct {
	Req core.DeleteRequest `json:"req"`
}

// Convey is a module-to-module message relayed via the NM (§II-D.1.d).
type Convey struct {
	FromModule core.ModuleRef  `json:"from_module"`
	ToModule   core.ModuleRef  `json:"to_module"`
	Kind       string          `json:"kind"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// ListFieldsReq asks a target module for the low-level fields and values
// behind one of its abstract components (§II-E).
type ListFieldsReq struct {
	Requester core.ModuleRef `json:"requester"`
	Target    core.ModuleRef `json:"target"`
	Component string         `json:"component"` // pipe id or "self"
}

// ListFieldsResp carries the resolved fields.
type ListFieldsResp struct {
	Target    core.ModuleRef    `json:"target"`
	Component string            `json:"component"`
	Fields    map[string]string `json:"fields"`
}

// Notify is an unsolicited module -> NM event.
type Notify struct {
	Module core.ModuleRef `json:"module"`
	Kind   string         `json:"kind"`
	Detail string         `json:"detail,omitempty"`
}

// InstallTriggerReq asks a module to report when the low-level values
// behind a component change (dependency maintenance, §II-E).
type InstallTriggerReq struct {
	Module    core.ModuleRef `json:"module"`
	Component string         `json:"component"`
}

// InstallTriggerResp acknowledges trigger installation.
type InstallTriggerResp struct {
	TriggerID string `json:"trigger_id"`
}

// Trigger reports that a watched component's low-level values changed.
type Trigger struct {
	Module    core.ModuleRef    `json:"module"`
	Component string            `json:"component"`
	Fields    map[string]string `json:"fields"`
}

// SelfTestReq asks a module to probe data-plane connectivity to its peer
// on a pipe (§II-D.2).
type SelfTestReq struct {
	Module core.ModuleRef `json:"module"`
	Pipe   core.PipeID    `json:"pipe"`
}

// SelfTestResp reports the probe outcome.
type SelfTestResp struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// CommandItem is one primitive invocation inside a batch. Exactly one
// field is set.
type CommandItem struct {
	Pipe   *CreatePipeItem  `json:"pipe,omitempty"`
	Switch *CreateSwitchReq `json:"switch,omitempty"`
	Filter *CreateFilterReq `json:"filter,omitempty"`
	Delete *DeleteReq       `json:"delete,omitempty"`
}

// CreatePipeItem carries the NM-chosen pipe identifier so later switch
// rules in the same batch can reference it symbolically (P0, P1, ... as in
// Fig 7b).
type CreatePipeItem struct {
	ID  core.PipeID      `json:"id"`
	Req core.PipeRequest `json:"req"`
}

// CommandBatchReq is the NM's per-device configuration message: the paper's
// Table VI accounting sends one command message to each router along the
// path, so the executor batches all of a device's primitives into one
// envelope.
type CommandBatchReq struct {
	Items []CommandItem `json:"items"`
}

// CommandBatchResp reports per-item results ("" = success).
type CommandBatchResp struct {
	Errors []string `json:"errors"`
	// Results carries the created component identifiers, aligned with the
	// request items, so the NM can bind desired state to device state
	// without a follow-up showActual sweep.
	Results []CommandItemResult `json:"results,omitempty"`
}

// CommandItemResult identifies what one batch item produced on the device.
type CommandItemResult struct {
	PipeID core.PipeID `json:"pipe_id,omitempty"`
	RuleID string      `json:"rule_id,omitempty"`
	// Pending marks a switch rule that was accepted but whose install is
	// deferred on an external dependency (ErrPending); its observable
	// state is not yet what the NM asked for.
	Pending bool `json:"pending,omitempty"`
	// Handle is what showActual reports for the created component: a
	// pipe's PipeState.Handle, or an installed rule's HandleResolved.
	Handle string `json:"handle,omitempty"`
}

// OK reports whether every item succeeded.
func (r CommandBatchResp) OK() bool {
	for _, e := range r.Errors {
		if e != "" {
			return false
		}
	}
	return true
}

// Batch message types.
const (
	TypeCommandBatchReq  Type = "commandBatch"
	TypeCommandBatchResp Type = "commandBatch.resp"
)

// Error is the body of a TypeError response.
type Error struct {
	Message string `json:"message"`
}

// Errorf builds an error envelope answering req.
func Errorf(req Envelope, from string, format string, args ...any) Envelope {
	return MustNew(TypeError, from, req.From, req.ID, Error{Message: fmt.Sprintf(format, args...)})
}

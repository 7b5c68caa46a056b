// Package channeltest drives a device's management agent over an
// in-process Hub the way the network manager does, for tests that sit
// below the NM: send one request envelope, get its reply back.
//
// Requests go out from an endpoint of their own, not the NM's, so an NM
// attached to the same hub keeps relaying conveys and receiving the
// device's notifies and triggers.
package channeltest

import (
	"sync/atomic"
	"testing"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/msg"
)

const caller = "channeltest"

// nextID numbers requests so no two share an envelope ID: the MA would
// answer a byte-identical request with the same ID from its reply cache.
var nextID atomic.Uint64

// Call sends a request of type typ carrying body to device dev and
// returns the reply. Hub delivery is synchronous, so the reply has
// arrived when Send returns; a request that draws none fails the test.
func Call(t testing.TB, hub *channel.Hub, dev core.DeviceID, typ msg.Type, body any) msg.Envelope {
	t.Helper()
	ep := hub.Endpoint(caller)
	defer ep.Close()
	replies := make(chan msg.Envelope, 1)
	ep.SetHandler(func(env msg.Envelope) {
		select {
		case replies <- env:
		default:
		}
	})
	req, err := msg.New(typ, caller, string(dev), nextID.Add(1), body)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(req); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-replies:
		return env
	default:
		t.Fatalf("%s to %s: no reply", typ, dev)
		return msg.Envelope{}
	}
}

// Batch sends items to dev as one command batch, the NM's only write
// path, and returns the device's per-item response.
func Batch(t testing.TB, hub *channel.Hub, dev core.DeviceID, items ...msg.CommandItem) msg.CommandBatchResp {
	t.Helper()
	env := Call(t, hub, dev, msg.TypeCommandBatchReq, msg.CommandBatchReq{Items: items})
	if env.Type != msg.TypeCommandBatchResp {
		t.Fatalf("batch to %s answered %s: %s", dev, env.Type, env.Body)
	}
	var resp msg.CommandBatchResp
	if err := env.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

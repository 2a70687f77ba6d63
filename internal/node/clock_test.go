package node_test

import (
	"bytes"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/gossip"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// TestFwdRetryUsesServerClock: the runtime ticks gossip on the server's
// own clock, the one FWD requests are stamped with. A server whose clock
// started long before Start — store replay and startup catch-up run in
// between — must re-ask a missing predecessor within ResendAfter plus one
// TickEvery of the first ask, not once the loop's own uptime has caught
// up with the server clock.
func TestFwdRetryUsesServerClock(t *testing.T) {
	const (
		resendAfter = 200 * time.Millisecond
		tickEvery   = 50 * time.Millisecond
		// slack absorbs goroutine scheduling on a loaded host; a retry
		// paced by the wrong clock misses the deadline by an hour.
		slack = 250 * time.Millisecond
	)
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	parent := block.New(0, 0, nil, nil)
	if err := parent.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	child := block.New(0, 1, []block.Ref{parent.Ref()}, nil)
	if err := child.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}

	origin := time.Now().Add(-time.Hour) // the clock started an hour before Start
	tr := &fwdRecorder{want: gossip.EncodeFwdMsg(parent.Ref()), asks: make(chan time.Time, 8)}
	srv, err := core.NewServer(core.Config{
		Roster:           roster,
		Signer:           signers[1],
		Protocol:         brb.Protocol{},
		Transport:        tr,
		Clock:            func() time.Duration { return time.Since(origin) },
		ResendAfter:      resendAfter,
		FwdFallbackAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, TickEvery: tickEvery, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()

	// Only the child arrives: its parent is missing, so gossip asks the
	// builder for it at once, then again every ResendAfter.
	nd.Deliver(0, gossip.EncodeBlockMsg(child))
	first := waitAsk(t, tr.asks, time.Second, "first FWD request")
	second := waitAsk(t, tr.asks, resendAfter+tickEvery+slack, "FWD re-ask")
	if gap := second.Sub(first); gap < resendAfter {
		t.Fatalf("FWD re-asked after %v, before ResendAfter %v", gap, resendAfter)
	}
}

func waitAsk(t *testing.T, asks <-chan time.Time, within time.Duration, what string) time.Time {
	t.Helper()
	select {
	case at := <-asks:
		return at
	case <-time.After(within):
		t.Fatalf("no %s within %v", what, within)
		return time.Time{}
	}
}

// fwdRecorder is a transport that records when one FWD request is sent.
type fwdRecorder struct {
	want []byte
	asks chan time.Time
}

func (r *fwdRecorder) Self() types.ServerID { return 1 }

func (r *fwdRecorder) Send(_ types.ServerID, ch transport.Channel, payload []byte) {
	if ch == transport.ChanGossip && bytes.Equal(payload, r.want) {
		select {
		case r.asks <- time.Now():
		default:
		}
	}
}

func (r *fwdRecorder) Call(types.ServerID, transport.Channel, []byte, transport.CallSink) func() {
	return func() {}
}

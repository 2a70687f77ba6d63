package node_test

import (
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// TestNodeLiveFollower: a running node whose gossip link to the cluster
// is effectively dead still converges on new history through the
// follower loop — watermark poll, delta pull, absorption into the live
// server — with every pulled block journaled and the node's own
// watermark tracker advancing.
func TestNodeLiveFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}

	// The peer: a store with history, served statically on the sync
	// channel (no gossip toward the follower at all — the lag never
	// heals by itself).
	peerDir := t.TempDir()
	chainLen := runDurableNode(t, peerDir, roster, signers[0])
	peerStore, err := store.Open(peerDir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peerStore.Close() }()
	peerTr, err := tcpnet.Listen(tcpnet.Config{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}},
		Handlers: map[transport.Channel]transport.Handler{
			transport.ChanSync: &syncsvc.Server{Store: peerStore},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peerTr.Close() }()

	// The follower: empty store, startup catch-up, and a follower loop
	// polling on a short real period.
	myTr, err := tcpnet.Listen(tcpnet.Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = myTr.Close() }()
	if err := myTr.Connect(0, peerTr.Addr()); err != nil {
		t.Fatal(err)
	}
	myStore, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = myStore.Close() }()
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[1],
		Protocol:  brb.Protocol{},
		Transport: myTr,
		Clock:     node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server: srv,
		Store:  myStore,
		CatchUp: &syncsvc.FetchConfig{
			Transport: myTr,
			Peers:     []types.ServerID{0},
			Timeout:   10 * time.Second,
		},
		FollowEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := nd.CatchUpReport(); rep.Err != nil || rep.Blocks != chainLen {
		t.Fatalf("startup catch-up = %+v, want %d blocks", rep, chainLen)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}

	// The peer's history grows while the follower runs; only the sync
	// channel can tell it.
	const extra = 5
	parent := lastByBuilder(t, peerStore.TakeDAG().Blocks(), 0)
	for i := 0; i < extra; i++ {
		b := block.New(0, parent.Seq+1, []block.Ref{parent.Ref()}, nil)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		if err := peerStore.Append(b); err != nil {
			t.Fatal(err)
		}
		parent = b
	}
	if err := peerStore.Sync(); err != nil {
		t.Fatal(err)
	}

	// Polls keep coming every FollowEvery; wait until one lands the
	// delta (the first polls race the Append above only in the test,
	// never in the protocol).
	deadline := time.Now().Add(15 * time.Second)
	for nd.FollowReport().Blocks < extra {
		if time.Now().After(deadline) {
			t.Fatalf("follower never pulled the %d-block suffix: %+v (node err: %v)", extra, nd.FollowReport(), nd.Err())
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep := nd.FollowReport()
	nd.Stop()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Deltas == 0 {
		t.Fatalf("follow report %+v: blocks arrived without a delta pull?", rep)
	}

	// The live server absorbed the suffix...
	if got := len(srv.DAG().ByBuilder(0)); got != chainLen+extra {
		t.Fatalf("follower holds %d of the peer's blocks, want %d", got, chainLen+extra)
	}
	// ...the tracker advertises it...
	wms := nd.Watermarks()
	found := false
	for _, wm := range wms {
		if wm.Builder == 0 && wm.NextSeq == uint64(chainLen+extra) {
			found = true
		}
	}
	if !found {
		t.Fatalf("tracker vector %v does not advertise builder 0 at %d", wms, chainLen+extra)
	}
	// ...and every pulled block was journaled: a reopen replays them.
	if err := myStore.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(myStore.Dir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	count := 0
	for _, b := range reopened.TakeDAG().Blocks() {
		if b.Builder == 0 {
			count++
		}
	}
	if count != chainLen+extra {
		t.Fatalf("journal replays %d peer blocks, want %d", count, chainLen+extra)
	}
}

// lastByBuilder returns the highest-seq block of one builder.
func lastByBuilder(t *testing.T, blocks []*block.Block, builder types.ServerID) *block.Block {
	t.Helper()
	var last *block.Block
	for _, b := range blocks {
		if b.Builder == builder && (last == nil || b.Seq > last.Seq) {
			last = b
		}
	}
	if last == nil {
		t.Fatalf("no blocks by builder %d", builder)
	}
	return last
}

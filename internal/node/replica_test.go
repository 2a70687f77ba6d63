package node_test

import (
	"reflect"
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/state"
	"blockdag/internal/store"
)

// TestReplicaSealPrunePolicy drives the seal/serve/prune cycle that a
// running node paces on wall time through the replica core on a
// hand-advanced clock: no sockets, no goroutines. Nothing seals before
// SealEvery; the first due tick seals, journals the checkpoint (it
// survives a reopen) and serves the snapshot; a later tick with idle
// state still prunes the grown chain and keeps the served base and
// horizon equal to the store's.
func TestReplicaSealPrunePolicy(t *testing.T) {
	const (
		sealEvery = time.Second
		keep      = 2
	)
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	clock := func() time.Duration { return now }
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: simnet.New().Transport(0),
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	machine := state.NewMachine(0)
	rep, err := node.NewReplica(node.Config{
		Server: srv,
		Store:  st,
		State: &node.StateSyncConfig{
			Machine:       machine,
			Signer:        signers[0],
			SealEvery:     sealEvery,
			PruneKeepSeqs: keep,
		},
	}, st.TakeDAG(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func(blocks int) {
		t.Helper()
		for i := 0; i < blocks; i++ {
			if err := srv.Disseminate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	build(6)
	if _, err := machine.Apply(0, state.EncodeSet([]byte("k"), []byte("v"))); err != nil {
		t.Fatal(err)
	}

	now = sealEvery - 1
	rep.Tick()
	if rep.ServedSnapshot() != nil || st.StateCheckpoint() != nil {
		t.Fatal("sealed before SealEvery elapsed")
	}

	now = sealEvery
	rep.Tick()
	ckpt := st.StateCheckpoint()
	if ckpt == nil || ckpt.Slot != 1 || ckpt.Root != machine.Root() {
		t.Fatalf("checkpoint after SealEvery = %+v, want slot 1 at the machine's root", ckpt)
	}
	served := rep.ServedSnapshot()
	if served == nil || served.Signed.Commit != (state.Commit{Slot: 1, Root: machine.Root()}) {
		t.Fatalf("served snapshot %+v, want the sealed commit", served)
	}
	if err := served.Signed.Verify(roster); err != nil {
		t.Fatalf("served commit does not verify: %v", err)
	}
	if h := st.Horizon()[0]; h != 6-keep {
		t.Fatalf("seal pruned to horizon %d, want %d", h, 6-keep)
	}
	assertServedMatchesStore(t, rep, st)

	// Idle state, growing chain: the next due tick prunes again and
	// re-serves the same commit at the new base and horizon.
	build(4)
	now = 2*sealEvery - 1
	rep.Tick()
	if h := st.Horizon()[0]; h != 6-keep {
		t.Fatalf("pruned before SealEvery elapsed again: horizon %d", h)
	}
	now = 2 * sealEvery
	rep.Tick()
	if h := st.Horizon()[0]; h != 10-keep {
		t.Fatalf("idle prune reached horizon %d, want %d", h, 10-keep)
	}
	if got := rep.ServedSnapshot(); !reflect.DeepEqual(got.Signed, served.Signed) {
		t.Fatalf("idle prune changed the served commit: %+v -> %+v", served.Signed, got.Signed)
	}
	assertServedMatchesStore(t, rep, st)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint was journaled: a reopen recovers it at the horizon.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if got := reopened.StateCheckpoint(); got == nil || got.Slot != ckpt.Slot || got.Root != ckpt.Root {
		t.Fatalf("reopened checkpoint %+v, want slot %d", got, ckpt.Slot)
	}
	if h := reopened.Horizon()[0]; h != 10-keep {
		t.Fatalf("reopened horizon %d, want %d", h, 10-keep)
	}
}

func assertServedMatchesStore(t *testing.T, rep *node.Replica, st *store.Store) {
	t.Helper()
	served := rep.ServedSnapshot()
	if !reflect.DeepEqual(served.Base, st.Base()) || !reflect.DeepEqual(served.Horizon, st.Horizon()) {
		t.Fatalf("served base %v horizon %v, store base %v horizon %v", served.Base, served.Horizon, st.Base(), st.Horizon())
	}
}

package core_test

import (
	"crypto/ed25519"
	"errors"
	"strings"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// recordingTransport counts payloads handed to the network, so tests can
// observe whether a block was externalized.
type recordingTransport struct {
	self  types.ServerID
	sends int
}

func (r *recordingTransport) Self() types.ServerID { return r.self }

func (r *recordingTransport) Send(types.ServerID, transport.Channel, []byte) { r.sends++ }

func (r *recordingTransport) Call(_ types.ServerID, _ transport.Channel, _ []byte, sink transport.CallSink) func() {
	sink.OnDone(transport.ErrUnreachable)
	return func() {}
}

// TestPersistFailureWithholdsBroadcast: once the persistence sink fails,
// the own block it failed on must not reach the network — a non-durable
// own block that peers have seen is a post-crash self-equivocation waiting
// to happen — and the unhealthy server must refuse to build further
// blocks while continuing to serve the rest of the protocol.
func TestPersistFailureWithholdsBroadcast(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransport{self: 0}
	diskFull := errors.New("disk full")
	healthy := true
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: tr,
		Clock:     func() time.Duration { return 0 },
		OnPersist: func(*block.Block) error {
			if healthy {
				return nil
			}
			return diskFull
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := srv.Disseminate(); err != nil {
		t.Fatal(err)
	}
	sentWhileHealthy := tr.sends
	if sentWhileHealthy == 0 {
		t.Fatal("healthy disseminate sent nothing")
	}

	healthy = false
	srv.Request("lost?", []byte("payload"))
	if err := srv.Disseminate(); !errors.Is(err, diskFull) {
		t.Fatalf("disseminate over a failing sink returned %v, want the persist error", err)
	}
	if tr.sends != sentWhileHealthy {
		t.Fatal("non-durable own block was broadcast")
	}
	// The requests drained into the withheld block are requeued, not
	// silently lost with it.
	if got := srv.PendingRequests(); got != 1 {
		t.Fatalf("withheld block's request not requeued: %d pending", got)
	}
	if srv.Health() == nil {
		t.Fatal("persist failure did not mark the server unhealthy")
	}
	// The withheld block advanced the local chain: it is in the DAG, and
	// its sequence number is burned even though nobody saw it.
	if got := len(srv.DAG().ByBuilder(0)); got != 2 {
		t.Fatalf("own chain has %d blocks, want 2 (one broadcast, one withheld)", got)
	}

	// Further dissemination refuses outright, even if the disk recovers:
	// the operator must restart over a working store.
	healthy = true
	err = srv.Disseminate()
	if err == nil || !strings.Contains(err.Error(), "unhealthy") {
		t.Fatalf("unhealthy server disseminated: %v", err)
	}
	if tr.sends != sentWhileHealthy {
		t.Fatal("unhealthy server sent to the network")
	}
}

// TestRestoreFailureLeavesServerFresh: a restore refused because its DAG
// was validated under a different roster must not touch the server —
// same-server retry with a DAG validated under the server's own member
// keys succeeds, and the persistence sink can still be installed.
func TestRestoreFailureLeavesServerFresh(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: &recordingTransport{self: 0},
		Clock:     func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}

	// A one-member roster with a different key: its blocks are valid
	// under it, and prove nothing under the server's roster.
	var seed [32]byte
	copy(seed[:], "foreign roster seed")
	pair := crypto.KeyPairFromSeed(seed)
	foreignRoster, err := crypto.NewRoster([]ed25519.PublicKey{pair.Public})
	if err != nil {
		t.Fatal(err)
	}
	foreignSigner, err := crypto.NewSigner(0, pair, foreignRoster)
	if err != nil {
		t.Fatal(err)
	}
	foreign := admittedChain(t, foreignRoster, foreignSigner, 2)
	if err := srv.Restore(foreign); !errors.Is(err, core.ErrRosterMismatch) {
		t.Fatalf("Restore(foreign-roster DAG) = %v, want core.ErrRosterMismatch", err)
	}
	if got := srv.DAG().Len(); got != 0 {
		t.Fatalf("refused restore left %d blocks in the DAG", got)
	}

	// The retry's DAG is validated under a distinct Roster value with the
	// same member keys: membership, not identity, is what Restore checks.
	sameKeys, _, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(admittedChain(t, sameKeys, signers[0], 2)); err != nil {
		t.Fatalf("retry after refused restore: %v", err)
	}
	if err := srv.SetPersist(func(*block.Block) error { return nil }); err != nil {
		t.Fatalf("SetPersist after successful restore: %v", err)
	}
	if got := len(srv.DAG().ByBuilder(0)); got != 2 {
		t.Fatalf("restored chain has %d blocks, want 2", got)
	}
}

// admittedChain seals an n-block chain on signer and admits it into a DAG
// validated under roster.
func admittedChain(t *testing.T, roster *crypto.Roster, signer *crypto.Signer, n int) *dag.DAG {
	t.Helper()
	d := dag.New(roster)
	var preds []block.Ref
	for k := 0; k < n; k++ {
		b := block.New(signer.ID(), uint64(k), preds, nil)
		if err := b.Seal(signer); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Admit([]*block.Block{b}); err != nil {
			t.Fatal(err)
		}
		preds = []block.Ref{b.Ref()}
	}
	return d
}

// TestRestoreBuilderUnknownSentinel: a wrong-roster recovery must stay
// distinguishable from a corrupted log. A block whose builder is outside
// the roster is refused at admission with dag.ErrBuilderUnknown, not
// dag.ErrBadSignature, and a DAG validated under a larger roster is
// refused by Restore with core.ErrRosterMismatch.
func TestRestoreBuilderUnknownSentinel(t *testing.T) {
	// Seal a valid block under a two-server roster; a server whose
	// roster only knows server 0 must not take it: builder 1's signature
	// is genuine, only the membership is wrong.
	bigRoster, bigSigners, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	foreign := block.New(1, 0, nil, nil)
	if err := foreign.Seal(bigSigners[1]); err != nil {
		t.Fatal(err)
	}

	smallRoster, smallSigners, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dag.New(smallRoster).Admit([]*block.Block{foreign})
	if !errors.Is(err, dag.ErrBuilderUnknown) {
		t.Fatalf("Admit(foreign builder) = %v, want dag.ErrBuilderUnknown", err)
	}
	if errors.Is(err, dag.ErrBadSignature) {
		t.Fatalf("Admit(foreign builder) misreported a bad signature: %v", err)
	}

	srv, err := core.NewServer(core.Config{
		Roster:    smallRoster,
		Signer:    smallSigners[0],
		Protocol:  brb.Protocol{},
		Transport: &recordingTransport{self: 0},
		Clock:     func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	big := dag.New(bigRoster)
	if _, err := big.Admit([]*block.Block{foreign}); err != nil {
		t.Fatal(err)
	}
	err = srv.Restore(big)
	if !errors.Is(err, core.ErrRosterMismatch) {
		t.Fatalf("Restore(larger-roster DAG) = %v, want core.ErrRosterMismatch", err)
	}
	if errors.Is(err, dag.ErrBadSignature) {
		t.Fatalf("Restore(larger-roster DAG) misreported a bad signature: %v", err)
	}
}

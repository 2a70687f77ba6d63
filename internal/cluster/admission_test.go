package cluster_test

import (
	"errors"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
)

// TestAdmitSentinelOrder: every path that admits untrusted blocks —
// dag.Admit itself, store recovery, a catch-up stream, and a cluster
// server's recovery — reports an invalid block with the same sentinel,
// checked in Definition 3.3's order: a builder outside the roster is
// ErrBuilderUnknown (never ErrBadSignature, though its signature does
// not verify under the roster either), then the signature, then the
// predecessors, then the parent rule. Each case is a valid prefix
// followed by one bad block.
func TestAdmitSentinelOrder(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	seal := func(signer *crypto.Signer, seq uint64, preds ...block.Ref) *block.Block {
		b := block.New(signer.ID(), seq, preds, nil)
		if err := b.Seal(signer); err != nil {
			t.Fatal(err)
		}
		return b
	}
	g := seal(c.Signers[0], 0)
	// Server 5 of a larger roster: a genuine signature by a non-member.
	_, big, err := crypto.LocalRoster(6)
	if err != nil {
		t.Fatal(err)
	}
	foreign := seal(big[5], 0)
	// A bit-flipped signature (the encoding ends with it).
	enc := seal(c.Signers[1], 0).Encode()
	enc[len(enc)-1] ^= 0xff
	tampered, err := block.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	orphan := seal(c.Signers[2], 1, block.Ref{0xde, 0xad})
	// Two valid seq-1 variants by server 0 (an equivocation), and a
	// seq-2 block naming both as parents.
	g3 := seal(c.Signers[3], 0)
	fork1 := seal(c.Signers[0], 1, g.Ref())
	fork2 := seal(c.Signers[0], 1, g.Ref(), g3.Ref())
	twoParents := seal(c.Signers[0], 2, fork1.Ref(), fork2.Ref())

	cases := []struct {
		name   string
		blocks []*block.Block
		want   error
	}{
		{"foreign builder", []*block.Block{g, foreign}, dag.ErrBuilderUnknown},
		{"tampered signature", []*block.Block{g, tampered}, dag.ErrBadSignature},
		{"missing predecessor", []*block.Block{g, orphan}, dag.ErrMissingPreds},
		{"two parents", []*block.Block{g, g3, fork1, fork2, twoParents}, dag.ErrParentRule},
	}
	check := func(t *testing.T, path string, err error, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: error %v, want %v", path, err, want)
		}
		if want != dag.ErrBadSignature && errors.Is(err, dag.ErrBadSignature) {
			t.Fatalf("%s: misreported a bad signature: %v", path, err)
		}
	}
	c.Crash(3) // the slot cluster.RecoverServer rebuilds, or fails to
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := len(tc.blocks) - 1

			d := dag.New(c.Roster)
			admitted, err := d.Admit(tc.blocks)
			check(t, "dag.Admit", err, tc.want)
			if admitted != bad || d.Len() != bad {
				t.Fatalf("dag.Admit kept %d blocks (reported %d), want the %d-block valid prefix", d.Len(), admitted, bad)
			}

			dir := t.TempDir()
			w, err := store.Open(dir, store.Options{Roster: c.Roster})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AppendBatch(tc.blocks); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = store.Open(dir, store.Options{Roster: c.Roster, ReadOnly: true})
			check(t, "store.Open", err, tc.want)

			net := simnet.New()
			net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{
				Source: func() ([]*block.Block, error) { return tc.blocks, nil },
			})
			pull := syncsvc.NewPull(dag.New(c.Roster), 0)
			net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
			if !net.RunUntil(pull.Done) {
				t.Fatal("stream did not settle")
			}
			got, err := pull.Result()
			check(t, "Pull stream", err, tc.want)
			if len(got) != bad {
				t.Fatalf("Pull stream kept %d blocks, want the %d-block valid prefix", len(got), bad)
			}

			check(t, "cluster.RecoverServer", c.RecoverServer(3, brb.Protocol{}, tc.blocks), tc.want)
		})
	}
}

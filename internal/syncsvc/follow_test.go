package syncsvc_test

import (
	"blockdag/internal/crypto"
	"errors"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/simnet"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// TestWatermarkFrameRoundTrip: the watermark-exchange frame codec
// inverts cleanly, including the empty vector.
func TestWatermarkFrameRoundTrip(t *testing.T) {
	for _, wms := range [][]syncsvc.Watermark{
		{},
		{{Builder: 0, NextSeq: 7}},
		{{Builder: 1, NextSeq: 3}, {Builder: 2, NextSeq: 0}, {Builder: 9, NextSeq: 1 << 40}},
	} {
		got, err := syncsvc.DecodeWatermarkFrame(syncsvc.EncodeWatermarkFrame(wms))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wms) {
			t.Fatalf("round trip %v -> %v", wms, got)
		}
		for i := range wms {
			if got[i] != wms[i] {
				t.Fatalf("round trip %v -> %v", wms, got)
			}
		}
	}
	if _, err := syncsvc.DecodeWatermarkFrame([]byte{0xEE, 0}); err == nil {
		t.Fatal("decoded a frame of the wrong kind")
	}
}

// TestWatermarkQueryOverSimnet: a watermark-exchange call against a
// store-backed server returns the vector describing the store, both via
// the scan fallback and via a configured live source.
func TestWatermarkQueryOverSimnet(t *testing.T) {
	roster, blocks := buildChain(t, 25)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	run := func(srv *syncsvc.Server) []syncsvc.Watermark {
		net := simnet.New(simnet.WithSeed(9))
		net.RegisterHandler(0, transport.ChanSync, srv)
		q := syncsvc.NewWatermarkQuery(nil)
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), q)
		if !net.RunUntil(q.Done) {
			t.Fatal("query never finished")
		}
		wms, err := q.Result()
		if err != nil {
			t.Fatal(err)
		}
		return wms
	}

	want := syncsvc.Watermarks(blocks)
	for name, srv := range map[string]*syncsvc.Server{
		"scan-fallback": {Store: st},
		"live-source":   {Store: st, Watermarks: func() []syncsvc.Watermark { return want }},
		// A live source that is not bound yet answers nil, which must
		// fall back to the scan — not read as "holds nothing".
		"nil-live-source": {Store: st, Watermarks: func() []syncsvc.Watermark { return nil }},
	} {
		got := run(srv)
		if len(got) != 1 || got[0] != want[0] {
			t.Fatalf("%s: watermarks = %v, want %v", name, got, want)
		}
	}
}

// TestWatermarkQueryThrottled: watermark queries pass the same admission
// policy as delta streams, and the throttle sentinel survives to the
// client.
func TestWatermarkQueryThrottled(t *testing.T) {
	roster, blocks := buildChain(t, 5)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	net := simnet.New(simnet.WithSeed(2))
	clock := net.Now
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{
		Store: st,
		Every: time.Hour, // one token replenished per hour...
		Burst: 1,         // ...and the bucket holds just one
		Clock: clock,
	})

	issue := func() error {
		q := syncsvc.NewWatermarkQuery(nil)
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), q)
		if !net.RunUntil(q.Done) {
			t.Fatal("query never finished")
		}
		_, err := q.Result()
		return err
	}
	if err := issue(); err != nil {
		t.Fatalf("first query: %v", err)
	}
	err := issue()
	if !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("second query err = %v, want ErrThrottled", err)
	}
}

// TestWatermarkQueryTruncated: a transport-clean close without the
// vector frame is an explicit error, not an empty answer.
func TestWatermarkQueryTruncated(t *testing.T) {
	net := simnet.New()
	net.RegisterHandler(0, transport.ChanSync, handlerFunc(func(from types.ServerID, req []byte, st transport.ServerStream) {
		st.Close(nil) // "done", but never answered
	}))
	q := syncsvc.NewWatermarkQuery(nil)
	net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), q)
	if !net.RunUntil(q.Done) {
		t.Fatal("query never finished")
	}
	if _, err := q.Result(); err == nil {
		t.Fatal("truncated watermark answer accepted")
	}
}

// handlerFunc adapts a function to transport.Handler.
type handlerFunc func(types.ServerID, []byte, transport.ServerStream)

func (f handlerFunc) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	f(from, req, st)
}

// TestHorizonAndBehind: the pull trigger fires exactly when a peer
// advertises blocks outside the local horizon (a tracker's, the one the
// follower compares against).
func TestHorizonAndBehind(t *testing.T) {
	roster, blocks := buildChain(t, 4) // builder 0, seqs 0..3
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	tr := syncsvc.NewWatermarkTracker()
	for b := range d.All() {
		tr.Observe(b)
	}
	local := tr.Horizon()
	if local[0] != 4 {
		t.Fatalf("horizon = %v, want builder 0 at 4", local)
	}
	cases := []struct {
		peer []syncsvc.Watermark
		want bool
	}{
		{nil, false},
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 4}}, false}, // equal
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 2}}, false}, // peer behind
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 5}}, true},  // peer ahead
		{[]syncsvc.Watermark{{Builder: 1, NextSeq: 1}}, true},  // unknown builder
	}
	for i, tc := range cases {
		if got := syncsvc.Behind(local, tc.peer); got != tc.want {
			t.Fatalf("case %d: Behind = %v, want %v", i, got, tc.want)
		}
	}
}

// TestWatermarkTracker: incremental observation matches the batch
// computation, and an equivocating builder drops out of the vector.
func TestWatermarkTracker(t *testing.T) {
	_, blocks := buildChain(t, 10)
	tr := syncsvc.NewWatermarkTracker()
	for _, b := range blocks {
		tr.Observe(b)
	}
	want := syncsvc.Watermarks(blocks)
	got := tr.Snapshot()
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("tracker = %v, batch = %v", got, want)
	}

	// An equivocation variant revisits a sequence slot: the builder must
	// leave the vector (only an exact chain prefix is skippable).
	variant := block.New(0, 4, []block.Ref{blocks[3].Ref()}, nil)
	tr.Observe(variant)
	if wms := tr.Snapshot(); len(wms) != 0 {
		t.Fatalf("forked builder still advertised: %v", wms)
	}
}

// TestDAGWatermarksMatchesBatch: the DAG-backed vector equals the
// slice-based one over the same blocks.
func TestDAGWatermarksMatchesBatch(t *testing.T) {
	roster, blocks := buildChain(t, 12)
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	want := syncsvc.Watermarks(blocks)
	got := syncsvc.DAGWatermarks(d)
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("DAGWatermarks = %v, want %v", got, want)
	}
}

// TestPullTrustedSeed: a pull extending a validated DAG resumes from the
// DAG's watermarks, trusts the blocks the DAG already holds (no signature
// re-verified), and validates the streamed remainder once per block.
func TestPullTrustedSeed(t *testing.T) {
	roster, blocks := buildChain(t, 40)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	net := simnet.New(simnet.WithSeed(6))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st})

	seed := admitted(t, roster, blocks[:15])
	var sigs crypto.Counters
	roster.SetCounters(&sigs)
	pull := syncsvc.NewPull(seed, 0)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
	if !net.RunUntil(pull.Done) {
		t.Fatal("stream never finished")
	}
	got, err := pull.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 25 {
		t.Fatalf("pulled %d blocks, want the 25-block suffix", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(15+i) {
			t.Fatalf("suffix block %d has seq %d", i, b.Seq)
		}
	}
	if v := sigs.Verified(); v != 25 {
		t.Fatalf("pull verified %d signatures, want 25 (the suffix only)", v)
	}
}

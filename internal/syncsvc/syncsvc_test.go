package syncsvc_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// buildChain seals a single-builder chain of length n on signer 0 of a
// fresh 2-server roster.
func buildChain(t testing.TB, n int) (*crypto.Roster, []*block.Block) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]*block.Block, 0, n)
	var parent *block.Block
	for i := 0; i < n; i++ {
		var preds []block.Ref
		if parent != nil {
			preds = []block.Ref{parent.Ref()}
		}
		b := block.New(0, uint64(i), preds, nil)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		parent = b
	}
	return roster, blocks
}

// storeWith journals blocks into a fresh store under dir.
func storeWith(t testing.TB, dir string, roster *crypto.Roster, blocks []*block.Block) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Roster: roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	return st
}

// admitted returns a validated DAG holding blocks — what a client
// recovered from its own store.
func admitted(t testing.TB, roster *crypto.Roster, blocks []*block.Block) *dag.DAG {
	t.Helper()
	d := dag.New(roster)
	if _, err := d.Admit(blocks); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPullOverSimnet: a fresh client pulls a served store in bulk and
// ends with the full, validated chain.
func TestPullOverSimnet(t *testing.T) {
	roster, blocks := buildChain(t, 300)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	net := simnet.New(simnet.WithSeed(4))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st, ChunkBytes: 4 << 10})

	pull := syncsvc.NewPull(dag.New(roster), 0)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
	if !net.RunUntil(pull.Done) {
		t.Fatal("stream did not finish")
	}
	got, err := pull.Result()
	if err != nil {
		t.Fatalf("pull failed: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	// The result must be replayable into a fresh DAG — a topological,
	// fully valid order.
	d := dag.New(roster)
	for _, b := range got {
		if err := d.Insert(b); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	// Small chunks force several frames — chunked streaming, not one
	// giant frame.
	if s := net.Stats(); s.CallFrames < 3 {
		t.Fatalf("stream used %d frames; chunking is not happening", s.CallFrames)
	}
}

// TestPullSkipsHeldPrefix: watermarks keep already-held blocks off the
// wire, and the stream resumes exactly past them.
func TestPullSkipsHeldPrefix(t *testing.T) {
	roster, blocks := buildChain(t, 100)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	net := simnet.New(simnet.WithSeed(4))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st})

	pull := syncsvc.NewPull(admitted(t, roster, blocks[:60]), 0)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
	if !net.RunUntil(pull.Done) {
		t.Fatal("stream did not finish")
	}
	got, err := pull.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d blocks, want the 40 missing ones", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(60+i) {
			t.Fatalf("block %d has seq %d", i, b.Seq)
		}
	}
}

// TestPullRejectsTamperedBlock: a malicious server cannot smuggle a
// forged block past the client — validation aborts the pull, and the
// blocks accepted before the tamper point are genuine.
func TestPullRejectsTamperedBlock(t *testing.T) {
	roster, blocks := buildChain(t, 50)
	// Tamper with block 30: same fields, bit-flipped signature — what a
	// compromised server injecting into the stream looks like. The flip
	// happens in the wire frame (its last byte is the signature's last
	// byte) and the forgery is rebuilt via Decode, because a sealed
	// block streams its cached canonical frame: tampering with struct
	// fields would never reach the wire.
	enc := append([]byte(nil), blocks[30].Encode()...)
	enc[len(enc)-1] ^= 0x01
	forged, err := block.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]*block.Block(nil), blocks...)
	tampered[30] = forged

	net := simnet.New(simnet.WithSeed(9))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{
		Source: func() ([]*block.Block, error) { return tampered, nil },
	})
	pull := syncsvc.NewPull(dag.New(roster), 0)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
	if !net.RunUntil(pull.Done) {
		t.Fatal("stream did not finish")
	}
	got, perr := pull.Result()
	if perr == nil {
		t.Fatal("tampered stream accepted")
	}
	if !strings.Contains(perr.Error(), "rejected") {
		t.Fatalf("err = %v, want a validation rejection", perr)
	}
	if len(got) != 30 {
		t.Fatalf("kept %d blocks, want the 30 valid ones before the tamper", len(got))
	}
	for _, b := range got {
		if !b.VerifySignature(roster) {
			t.Fatalf("kept block %v fails signature verification", b.Ref())
		}
	}
}

// TestPullRejectsOutOfOrderStream: blocks whose predecessors never
// appeared are refused — closure is validated, not assumed.
func TestPullRejectsOutOfOrderStream(t *testing.T) {
	roster, blocks := buildChain(t, 10)
	scrambled := []*block.Block{blocks[5]} // preds missing
	net := simnet.New(simnet.WithSeed(9))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{
		Source: func() ([]*block.Block, error) { return scrambled, nil },
	})
	pull := syncsvc.NewPull(dag.New(roster), 0)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
	net.RunUntil(pull.Done)
	if _, perr := pull.Result(); perr == nil {
		t.Fatal("stream with missing predecessors accepted")
	}
}

// TestPullTruncatedStreamFlagged: a server that closes cleanly without
// the protocol's done frame is reported, so a quietly truncating peer
// cannot masquerade as a complete sync.
func TestPullTruncatedStreamFlagged(t *testing.T) {
	pull := syncsvc.NewPull(dag.New(mustRoster(t)), 0)
	pull.OnDone(nil) // transport-clean close, no done frame seen
	if _, perr := pull.Result(); perr == nil {
		t.Fatal("truncated stream not flagged")
	}
}

func mustRoster(t *testing.T) *crypto.Roster {
	t.Helper()
	roster, _, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	return roster
}

// TestWatermarks: exact chain prefixes are summarized; forks and gaps
// are not.
func TestWatermarks(t *testing.T) {
	roster, blocks := buildChain(t, 5)
	_ = roster
	wms := syncsvc.Watermarks(blocks)
	if len(wms) != 1 || wms[0].Builder != 0 || wms[0].NextSeq != 5 {
		t.Fatalf("watermarks = %+v", wms)
	}
	// A gap (missing seq 2) must drop the builder from the summary.
	gappy := append(append([]*block.Block(nil), blocks[:2]...), blocks[3:]...)
	if wms := syncsvc.Watermarks(gappy); len(wms) != 0 {
		t.Fatalf("gappy chain summarized: %+v", wms)
	}
	// Round trip through the request encoding.
	wms = syncsvc.Watermarks(blocks)
	decoded, err := syncsvc.DecodeRequest(syncsvc.EncodeRequest(wms))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0] != wms[0] {
		t.Fatalf("round trip = %+v", decoded)
	}
}

// TestFetchOverTCPWithMidStreamDeathResumes: the blocking Fetch helper
// survives a serving peer dying mid-stream — it resumes against the next
// peer using watermarks that cover what the dead peer already delivered.
func TestFetchOverTCPWithMidStreamDeathResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, blocks := buildChain(t, 200)

	// Peer 0 dies mid-stream: it sends a valid prefix and closes without
	// the protocol's done frame. Fetch must keep the validated blocks,
	// flag the truncation, and resume against peer 1 — which serves
	// everything.
	truncating := truncatingHandler{blocks: blocks[:120]}
	full := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = full.Close() }()

	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	t0, err := tcpnet.Listen(tcpnet.Config{
		Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: ep,
		Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: truncating},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = t0.Close() }()
	t1, err := tcpnet.Listen(tcpnet.Config{
		Self: 1, ListenAddr: "127.0.0.1:0", Endpoints: ep,
		Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: &syncsvc.Server{Store: full}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = t1.Close() }()

	client, err := tcpnet.Listen(tcpnet.Config{Self: 2, ListenAddr: "127.0.0.1:0", Endpoints: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if err := client.Connect(0, t0.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(1, t1.Addr()); err != nil {
		t.Fatal(err)
	}

	got, err := syncsvc.Fetch(syncsvc.FetchConfig{
		Transport:       client,
		Peers:           []types.ServerID{0, 1},
		AttemptsPerPeer: 1,
		Timeout:         10 * time.Second,
	}, dag.New(roster))
	if err != nil {
		t.Fatalf("fetch failed despite a healthy second peer: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("fetched %d blocks, want %d", len(got), len(blocks))
	}
	// Resume, not restart: the second peer must not have re-sent the
	// prefix peer 0 already delivered (dedup would hide it in the
	// result; assert via a replay instead that everything validates).
	d := dag.New(roster)
	for _, b := range got {
		if err := d.Insert(b); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
}

type nopEndpoint struct{}

func (nopEndpoint) Deliver(types.ServerID, []byte) {}

// truncatingHandler streams its blocks and closes without the done frame
// — a server dying (or lying) mid-stream.
type truncatingHandler struct {
	blocks []*block.Block
}

func (h truncatingHandler) ServeCall(_ types.ServerID, _ []byte, st transport.ServerStream) {
	_ = st.Send(syncsvc.EncodeBatchFrame(h.blocks))
	st.Close(nil)
}

// TestFetchAllPeersFailing reports the terminal error and keeps partial
// results.
func TestFetchAllPeersFailing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, blocks := buildChain(t, 50)
	truncating := truncatingHandler{blocks: blocks[:20]}
	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	t0, err := tcpnet.Listen(tcpnet.Config{
		Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: ep,
		Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: truncating},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = t0.Close() }()
	client, err := tcpnet.Listen(tcpnet.Config{Self: 2, ListenAddr: "127.0.0.1:0", Endpoints: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if err := client.Connect(0, t0.Addr()); err != nil {
		t.Fatal(err)
	}
	got, ferr := syncsvc.Fetch(syncsvc.FetchConfig{
		Transport:       client,
		Peers:           []types.ServerID{0},
		AttemptsPerPeer: 1,
		Timeout:         5 * time.Second,
	}, dag.New(roster))
	if ferr == nil {
		t.Fatal("truncating-only peer set reported success")
	}
	if len(got) != 20 {
		t.Fatalf("kept %d valid blocks, want 20", len(got))
	}
	if errors.Is(ferr, transport.ErrUnreachable) {
		t.Fatalf("unexpected unreachable: %v", ferr)
	}
}

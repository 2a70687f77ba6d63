package node_test

import (
	"sync"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// TestVerifiesPerAdmittedBlock: every admission path pays exactly one
// Ed25519 verification per block it admits. A *dag.DAG vouches for its
// blocks, so the layers that receive one (Restore, a resumed Fetch, a
// follower's clone) never verify them again.
func TestVerifiesPerAdmittedBlock(t *testing.T) {
	t.Run("gossip", func(t *testing.T) {
		var sigs crypto.Counters
		c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 41, DisableAuth: true, SigCounters: &sigs})
		if err != nil {
			t.Fatal(err)
		}
		c.Request(0, "x", []byte("v"))
		if err := c.RunRounds(6); err != nil {
			t.Fatal(err)
		}
		// A server builds its own blocks and verifies everyone else's.
		received := 0
		for i, srv := range c.Servers {
			received += srv.DAG().Len() - len(srv.DAG().ByBuilder(types.ServerID(i)))
		}
		if received == 0 || sigs.Verified() != int64(received) {
			t.Fatalf("gossip verified %d signatures for %d received blocks", sigs.Verified(), received)
		}
	})

	t.Run("catch-up", func(t *testing.T) {
		roster, sigs, chain := countedChain(t, 40)
		// The first attempt dies after one frame; the second resumes.
		tr := &inProcTransport{handler: chainServer(chain), cutAfter: map[int]int{0: 1}}
		d := dag.New(roster)
		fetched, err := syncsvc.Fetch(syncsvc.FetchConfig{Transport: tr, Peers: []types.ServerID{0}, Timeout: 10 * time.Second}, d)
		if err != nil {
			t.Fatal(err)
		}
		if tr.callCount() != 2 {
			t.Fatalf("fetch made %d attempts, want a cut one and a resumed one", tr.callCount())
		}
		if len(fetched) != len(chain) || d.Len() != len(chain) {
			t.Fatalf("fetched %d blocks into a %d-block DAG, want %d", len(fetched), d.Len(), len(chain))
		}
		if v := sigs.Verified(); v != int64(len(chain)) {
			t.Fatalf("catch-up verified %d signatures for %d blocks", v, len(chain))
		}
	})

	t.Run("follow", func(t *testing.T) {
		roster, sigs, chain := countedChain(t, 40)
		const held = 15
		srv := newCountedServer(t, roster)
		// The replica core's follower driven by hand: its transport
		// callbacks come home on a channel and run on this goroutine.
		posted := make(chan func(), 4)
		tr := &inProcTransport{handler: chainServer(chain)}
		rep, err := node.NewReplica(node.Config{Server: srv, FollowEvery: time.Hour},
			admitChain(t, roster, chain[:held]), tr, []types.ServerID{0}, func(fn func()) { posted <- fn })
		if err != nil {
			t.Fatal(err)
		}
		rep.Poll()
		for range 2 { // the watermark answer, then the settled delta pull
			select {
			case fn := <-posted:
				fn()
			case <-time.After(10 * time.Second):
				t.Fatal("follow poll did not settle")
			}
		}
		r := rep.FollowReport()
		if r.LastErr != nil || rep.Err() != nil {
			t.Fatalf("follow: %v, replica: %v", r.LastErr, rep.Err())
		}
		if r.Deltas != 1 || r.Blocks != len(chain)-held || srv.DAG().Len() != len(chain) {
			t.Fatalf("follow report %+v into a %d-block DAG, want one delta of %d of %d", r, srv.DAG().Len(), len(chain)-held, len(chain))
		}
		if v := sigs.Verified(); v != int64(len(chain)) {
			t.Fatalf("admission plus follow verified %d signatures for %d blocks", v, len(chain))
		}
	})

	t.Run("restart", func(t *testing.T) {
		roster, sigs, chain := countedChain(t, 40)
		const held = 25
		// Journal a prefix with an uncounted roster: only the restart
		// itself is measured.
		plain, _, err := crypto.LocalRoster(2)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		writer, err := store.Open(dir, store.Options{Roster: plain})
		if err != nil {
			t.Fatal(err)
		}
		if err := writer.AppendBatch(chain[:held]); err != nil {
			t.Fatal(err)
		}
		if err := writer.Close(); err != nil {
			t.Fatal(err)
		}
		if sigs.Verified() != 0 {
			t.Fatal("journaling verified signatures")
		}

		st, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = st.Close() }()
		srv := newCountedServer(t, roster)
		nd, err := node.New(node.Config{
			Server:  srv,
			Store:   st,
			CatchUp: &syncsvc.FetchConfig{Transport: &inProcTransport{handler: chainServer(chain)}, Peers: []types.ServerID{0}, Timeout: 10 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep := nd.CatchUpReport(); rep.Err != nil || rep.Blocks != len(chain)-held {
			t.Fatalf("catch-up report %+v, want %d blocks", rep, len(chain)-held)
		}
		if srv.DAG().Len() != len(chain) {
			t.Fatalf("restored %d blocks, want %d", srv.DAG().Len(), len(chain))
		}
		if v := sigs.Verified(); v != int64(len(chain)) {
			t.Fatalf("store.Open + node.New verified %d signatures for %d blocks", v, len(chain))
		}
	})
}

// TestFetchTimedOutAttemptCannotTouchDAG: an attempt that times out is
// abandoned before the next one starts extending the same DAG, so a frame
// its cancelled call still delivers — here a valid block the peer never
// serves again — is dropped, not admitted behind the resumed attempt's
// back.
func TestFetchTimedOutAttemptCannotTouchDAG(t *testing.T) {
	roster, _, chain := countedChain(t, 20)
	_, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	late := block.New(1, 0, nil, nil)
	if err := late.Seal(signers[1]); err != nil {
		t.Fatal(err)
	}
	started, lateSent := make(chan struct{}), make(chan struct{})
	full := chainServer(chain)
	tr := &inProcTransport{serve: func(n int, req []byte, sink transport.CallSink, cancelled <-chan struct{}) {
		if n == 0 {
			sink.OnFrame(syncsvc.EncodeBatchFrame(chain[:5]))
			<-cancelled // the attempt times out and is cancelled
			<-started   // ...and the next attempt is under way
			sink.OnFrame(syncsvc.EncodeBatchFrame([]*block.Block{late}))
			close(lateSent)
			sink.OnDone(transport.ErrStreamLost)
			return
		}
		close(started)
		<-lateSent
		serveOn(full, req, sink, -1)
	}}
	d := dag.New(roster)
	fetched, err := syncsvc.Fetch(syncsvc.FetchConfig{Transport: tr, Peers: []types.ServerID{0}, Timeout: 100 * time.Millisecond}, d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Contains(late.Ref()) {
		t.Fatal("a timed-out attempt's late frame changed the DAG")
	}
	if len(fetched) != len(chain) || d.Len() != len(chain) {
		t.Fatalf("fetched %d blocks into a %d-block DAG, want %d", len(fetched), d.Len(), len(chain))
	}
}

// countedChain seals an n-block chain by server 0 of a 2-server roster
// whose verifications are counted (sealing verifies nothing).
func countedChain(t *testing.T, n int) (*crypto.Roster, *crypto.Counters, []*block.Block) {
	t.Helper()
	sigs := &crypto.Counters{}
	roster, signers, err := crypto.LocalRosterWithCounters(2, sigs)
	if err != nil {
		t.Fatal(err)
	}
	chain := make([]*block.Block, n)
	var preds []block.Ref
	for i := range chain {
		b := block.New(0, uint64(i), preds, nil)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		chain[i] = b
		preds = []block.Ref{b.Ref()}
	}
	return roster, sigs, chain
}

// admitChain admits blocks into a fresh DAG under roster.
func admitChain(t *testing.T, roster *crypto.Roster, blocks []*block.Block) *dag.DAG {
	t.Helper()
	d := dag.New(roster)
	if _, err := d.Admit(blocks); err != nil {
		t.Fatal(err)
	}
	return d
}

// newCountedServer builds server 1 of the roster, signing with an
// uncounted key (only verifications are under test).
func newCountedServer(t *testing.T, roster *crypto.Roster) *core.Server {
	t.Helper()
	_, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[1],
		Protocol:  brb.Protocol{},
		Transport: simnet.New().Transport(1),
		Clock:     node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// chainServer serves blocks on the sync channel in small frames, so a
// stream spans several of them.
func chainServer(blocks []*block.Block) *syncsvc.Server {
	return &syncsvc.Server{
		Source:     func() ([]*block.Block, error) { return blocks, nil },
		ChunkBytes: 1024,
	}
}

// inProcTransport runs each Call's handler on its own goroutine in
// process — the blocking Fetch path without sockets. cutAfter[n] makes
// call n's stream die after that many frames; serve, if set, replaces
// the handler entirely.
type inProcTransport struct {
	handler  transport.Handler
	cutAfter map[int]int
	serve    func(n int, req []byte, sink transport.CallSink, cancelled <-chan struct{})

	mu    sync.Mutex
	calls int
}

func (p *inProcTransport) Self() types.ServerID { return 1 }

func (p *inProcTransport) Send(types.ServerID, transport.Channel, []byte) {}

func (p *inProcTransport) Call(_ types.ServerID, _ transport.Channel, req []byte, sink transport.CallSink) func() {
	p.mu.Lock()
	n := p.calls
	p.calls++
	p.mu.Unlock()
	cancelled := make(chan struct{})
	go func() {
		if p.serve != nil {
			p.serve(n, req, sink, cancelled)
			return
		}
		limit, cut := p.cutAfter[n]
		if !cut {
			limit = -1
		}
		serveOn(p.handler, req, sink, limit)
	}()
	var once sync.Once
	return func() { once.Do(func() { close(cancelled) }) }
}

func (p *inProcTransport) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// serveOn runs h for one request, delivering at most limit frames
// (negative: all) before the stream dies with transport.ErrStreamLost.
func serveOn(h transport.Handler, req []byte, sink transport.CallSink, limit int) {
	st := &sinkStream{sink: sink, limit: limit}
	h.ServeCall(1, req, st)
	st.Close(transport.ErrStreamLost) // no-op after the handler's own Close
}

// sinkStream adapts a CallSink into the handler's ServerStream.
type sinkStream struct {
	sink   transport.CallSink
	limit  int
	sent   int
	closed bool
}

func (s *sinkStream) Send(frame []byte) error {
	if s.limit >= 0 && s.sent >= s.limit {
		return transport.ErrStreamLost
	}
	s.sent++
	s.sink.OnFrame(frame)
	return nil
}

func (s *sinkStream) Close(err error) {
	if s.closed {
		return
	}
	s.closed = true
	if s.limit >= 0 && s.sent >= s.limit {
		err = transport.ErrStreamLost
	}
	s.sink.OnDone(err)
}

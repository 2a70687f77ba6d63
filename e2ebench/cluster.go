package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/gateway"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

const (
	nReplicas   = 4
	allReplicas = uint8(1<<nReplicas - 1)
	// victim is the replica crash-rejoin cycles restart; s0 hosts the
	// gateway and stays up.
	victim = nReplicas - 1

	// The deployment configuration, as examples/tcp wires it.
	disseminateEvery = 20 * time.Millisecond
	checkpointSegs   = 4
	mempoolCapacity  = 4096
	followEvery      = 100 * time.Millisecond
	catchUpTimeout   = 5 * time.Second
)

// replica is one server process of the in-process cluster: durable store,
// authenticated TCP transport, sync service, node runtime, mempool and,
// on s0 when asked, the HTTP gateway.
type replica struct {
	id       int
	addr     string
	dir      string
	identity *roster.Identity
	sigs     *crypto.Counters
	mets     *metrics.Metrics
	st       *store.Store
	tr       *tcpnet.Transport
	gossip   *transport.LateBound
	syncSrv  *syncsvc.Server
	nd       *node.Node
	ndRef    atomic.Pointer[node.Node]
	gw       *gateway.Gateway
	// Incarnation bookkeeping for the per-layer numbers and checks:
	// counters at the window's bounds (or the incarnation's birth and
	// death inside it), and the state the incarnation ended in.
	diskAtStart     int64
	openTook        time.Duration
	newTook         time.Duration
	verifiesAtNew   int64
	winBase, winEnd counters
	inWindow, ended bool
	final           counters
	err             error
	rejoined        bool
	followRep       node.FollowReport
}

// cluster is the n=4 deployment under test.
type cluster struct {
	fx      *roster.Fixture
	dir     string
	reps    [nReplicas]*replica
	tr      *tracker
	tc      *tracer // nil in untraced runs
	gateway bool
	// retired keeps the counters of crashed incarnations, so whole-run
	// totals survive restarts.
	retired []*replica
	// restartSpan is the ID of the restart span in progress (traced
	// runs), the parent of the step spans.
	restartSpan int64
}

func newCluster(dir string, tr *tracker, tc *tracer, withGateway bool) (*cluster, error) {
	fx, err := roster.Dev(nReplicas)
	if err != nil {
		return nil, err
	}
	return &cluster{fx: fx, dir: dir, tr: tr, tc: tc, gateway: withGateway}, nil
}

// start brings the whole cluster up from empty stores: every listener
// bound, the authenticated mesh dialed, every runtime started.
func (c *cluster) start() error {
	for i := range c.reps {
		r, err := c.open(i, "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.reps[i] = r
	}
	for _, r := range c.reps {
		if err := c.connect(r); err != nil {
			return err
		}
	}
	for _, r := range c.reps {
		if err := c.boot(r, false); err != nil {
			return err
		}
	}
	return nil
}

// open opens replica i's store and binds its transport with the sync
// service on ChanSync.
func (c *cluster) open(i int, addr string) (*replica, error) {
	sigs := &crypto.Counters{}
	identity, err := c.fx.File.Identity(c.fx.Keys[i], sigs)
	if err != nil {
		return nil, err
	}
	r := &replica{id: i, dir: filepath.Join(c.dir, fmt.Sprintf("s%d", i)), identity: identity, sigs: sigs}
	t0, start := time.Now(), c.spanStart()
	r.st, err = store.Open(r.dir, store.Options{Roster: identity.Roster, Sync: store.SyncInterval})
	c.spanEnd("store.open", start)
	r.openTook = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if r.diskAtStart, err = r.st.DiskSize(); err != nil {
		r.st.Abandon()
		return nil, err
	}
	r.gossip = &transport.LateBound{}
	r.syncSrv = &syncsvc.Server{
		Store: r.st, Every: time.Second, Burst: 8,
		Watermarks: func() []syncsvc.Watermark {
			if nd := r.ndRef.Load(); nd != nil {
				return nd.Watermarks()
			}
			return nil
		},
	}
	var handler transport.Handler = r.syncSrv
	if c.tc != nil {
		handler = &tracedHandler{inner: r.syncSrv, tc: c.tc}
	}
	cfg := tcpnet.Config{
		Self:       identity.ID(),
		ListenAddr: addr,
		Auth:       identity.Auth(),
		Endpoints:  map[transport.Channel]transport.Endpoint{transport.ChanGossip: r.gossip},
		Handlers:   map[transport.Channel]transport.Handler{transport.ChanSync: handler},
	}
	// A restarted replica rebinds its old address; the previous
	// incarnation's listener may take a moment to release it.
	for attempt := 0; ; attempt++ {
		r.tr, err = tcpnet.Listen(cfg)
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) || attempt == 50 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		r.st.Abandon()
		return nil, err
	}
	r.addr = r.tr.Addr()
	return r, nil
}

func (c *cluster) connect(r *replica) error {
	for _, peer := range c.reps {
		if peer == nil || peer.id == r.id {
			continue
		}
		if err := r.tr.Connect(types.ServerID(peer.id), peer.addr); err != nil {
			return err
		}
	}
	return nil
}

// boot builds the core server and node runtime and starts the loop. A
// rejoining replica catches up from its peers and runs the live follower.
func (c *cluster) boot(r *replica, rejoin bool) error {
	var proto protocol.Protocol = brb.Protocol{}
	var tr transport.Transport = r.tr
	if c.tc != nil {
		proto = tracedProtocol{inner: proto, tc: c.tc}
		tr = &tracedTransport{inner: r.tr, tc: c.tc}
	}
	r.mets = &metrics.Metrics{}
	id := r.id
	srv, err := core.NewServer(core.Config{
		Roster:    r.identity.Roster,
		Signer:    r.identity.Signer,
		Protocol:  proto,
		Transport: tr,
		Clock:     node.Clock(),
		Metrics:   r.mets,
		Mempool:   mempool.New(mempool.Options{Capacity: mempoolCapacity}),
		OnIndication: func(label types.Label, value []byte) {
			c.tr.indicate(id, label, value)
		},
	})
	if err != nil {
		return err
	}
	cfg := node.Config{
		Server:                  srv,
		Identity:                r.identity,
		DisseminateEvery:        disseminateEvery,
		Store:                   r.st,
		CheckpointEverySegments: checkpointSegs,
	}
	if rejoin {
		var peers []types.ServerID
		for _, p := range c.reps {
			if p != nil && p.id != r.id {
				peers = append(peers, types.ServerID(p.id))
			}
		}
		cfg.CatchUp = &syncsvc.FetchConfig{Transport: tr, Peers: peers, Timeout: catchUpTimeout}
		cfg.FollowEvery = followEvery
	}
	t0, start := time.Now(), c.spanStart()
	nd, err := node.New(cfg)
	c.spanEnd("node.new", start)
	r.newTook = time.Since(t0)
	if err != nil {
		return err
	}
	r.verifiesAtNew = r.sigs.Verified()
	r.nd = nd
	r.ndRef.Store(nd)
	start = c.spanStart()
	err = nd.Start()
	c.spanEnd("node.start", start)
	if err != nil {
		return err
	}
	// Bind only once the loop runs: Bind flushes the gossip that queued
	// while New ran into node.Deliver, whose inbound channel holds 256;
	// a rejoin under load queues more than that, and a flush into a
	// loop that has not started blocks forever.
	var ep transport.Endpoint = nd
	if c.tc != nil {
		ep = &tracedEndpoint{inner: nd, tc: c.tc}
	}
	r.gossip.Bind(ep)
	if c.gateway && r.id == 0 {
		submit := nd.Submit
		if c.tc != nil {
			submit = c.tc.tracedSubmit(submit)
		}
		r.gw, err = gateway.Listen("127.0.0.1:0", gateway.Config{Node: nd, Submit: submit})
		if err != nil {
			return err
		}
	}
	return nil
}

// crash is the power-cut model cluster.Crash uses: stop the runtime,
// close the transport, abandon the store without a final seal.
func (c *cluster) crash(i int) {
	r := c.reps[i]
	c.reps[i] = nil
	r.nd.Stop() // closes the gateway too (node.OnStop)
	r.retire()
	_ = r.tr.Close()
	r.st.Abandon()
	c.retired = append(c.retired, r)
	c.tr.resetReplica(i)
}

// retire records a stopped incarnation's final state.
func (r *replica) retire() {
	r.final = r.snap()
	if r.inWindow && !r.ended {
		r.winEnd, r.ended = r.final, true
	}
	r.err = r.nd.Err()
	r.followRep = r.nd.FollowReport()
}

// restartTiming is what one rejoin cost, per step.
type restartTiming struct {
	open      time.Duration // store.Open
	newNode   time.Duration // node.New: store replay, bulk fetch, Restore
	recovered int           // blocks store.Open recovered
	catchUp   int           // blocks fetched in bulk
	verifies  int64         // signature checks during Open and New
}

// restart brings replica i back on its old address: store.Open, then
// node.New with catch-up from the peers and the live follower, then Start.
func (c *cluster) restart(i int, addr string) (restartTiming, error) {
	var rt restartTiming
	start := c.spanStart()
	if c.tc != nil {
		c.restartSpan = c.tc.nextID.Add(1)
		defer func() {
			c.tc.recordID(c.restartSpan, "restart", "", 0, start, now())
			c.restartSpan = 0
		}()
	}
	r, err := c.open(i, addr)
	if err != nil {
		return rt, err
	}
	c.reps[i] = r
	if err := c.connect(r); err != nil {
		return rt, err
	}
	if err := c.boot(r, true); err != nil {
		return rt, err
	}
	return restartTiming{
		open:      r.openTook,
		newNode:   r.newTook,
		recovered: r.st.Report().Blocks,
		catchUp:   r.nd.CatchUpReport().Blocks,
		verifies:  r.verifiesAtNew,
	}, nil
}

// spanStart and spanEnd bracket a step span in traced runs (no-ops
// otherwise); inside a restart the step is the restart span's child.
func (c *cluster) spanStart() int64 {
	if c.tc == nil {
		return 0
	}
	return now()
}

func (c *cluster) spanEnd(name string, start int64) {
	if c.tc != nil {
		c.tc.record(name, "", c.restartSpan, start, now())
	}
}

// stop shuts every live replica down cleanly and returns the most WAL
// segments any of them held.
func (c *cluster) stop() int {
	walSegs := 0
	for i, r := range c.reps {
		if r == nil {
			continue
		}
		if r.nd != nil {
			r.nd.Stop()
			r.retire()
			walSegs = max(walSegs, r.st.WALSegments())
		}
		if r.tr != nil {
			_ = r.tr.Close()
		}
		if r.st != nil {
			_ = r.st.Close()
		}
		c.retired = append(c.retired, r)
		c.reps[i] = nil
	}
	return walSegs
}

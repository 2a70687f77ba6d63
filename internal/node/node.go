// Package node is the concurrent runtime for a core.Server: it owns the
// single goroutine that drives the deterministic state machine and feeds
// it network deliveries, user requests, and the periodic disseminate and
// FWD-retry timers (Algorithm 3's "repeatedly gssp.disseminate()").
//
// The runtime has two halves. Replica is the deterministic core: the
// post-recovery wiring (Restore, the watermark tracker, the persistence
// sink), the live follower (Config.FollowEvery), the automatic
// checkpoint trigger (Config.CheckpointEverySegments/-Bytes), and the
// state seal/prune cycle (Config.State) — all paced by the server's own
// clock, with no goroutine, ticker or channel of its own. Node is the
// thin shell around it for real time: channels in, one loop goroutine,
// tickers, the blocking startup catch-up (Config.CatchUp), the
// indication broker, and explicit shutdown. The cluster simulator drives
// the same Replica on virtual time, so the follower, checkpoint and seal
// policy under its deterministic tests is the code production runs.
//
// The follower's transport callbacks never touch server state: the
// replica posts them back to the loop as closures, applied like every
// other input. Follower and checkpoint scheduling compose without
// coordination — absorbed blocks are journaled through the same
// persistence sink as gossiped ones, so they count toward the same
// segment/byte thresholds and appear in the snapshots served to other
// catch-up clients; the replica's own watermark vector (Watermarks,
// backed by a tracker the sink advances) stays consistent with the store
// across checkpoints, restarts, and pulls.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/dag"
	"blockdag/internal/gossip"
	"blockdag/internal/peerscore"
	"blockdag/internal/roster"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Config parameterizes the runtime.
type Config struct {
	// Server is the deterministic shim to drive. Required. The server's
	// Clock should be the one returned by Clock().
	Server *core.Server
	// Identity, if non-nil, names the roster identity this node runs as
	// (roster file plus key file, package roster). New cross-checks it
	// against the Server: a node keyed as the wrong roster member fails
	// at startup instead of producing blocks every peer discards and
	// failing every transport handshake.
	Identity *roster.Identity
	// DisseminateEvery is the block production period (default 50ms).
	DisseminateEvery time.Duration
	// TickEvery is the FWD retry-timer period (default 100ms).
	TickEvery time.Duration
	// Store, if non-nil, makes the server durable: New takes the store's
	// recovered DAG (store.Store.TakeDAG) and replays it through
	// core.Server.Restore (resuming the pre-crash chain), installs the
	// store's persistence sink (store.Store.PersistSink, which
	// force-syncs own blocks before gossip broadcasts them), and the loop
	// drives interval fsync alongside the FWD timer. The store must be
	// freshly opened (store.Open) and the server freshly built; the
	// caller keeps ownership and closes the store after Stop. On a clean
	// shutdown Stop leaves the WAL fully synced.
	Store *store.Store
	// CatchUp, if non-nil, bulk-syncs the server before the loop starts
	// (a Node step, not a Replica one: the blocking fetch runs in New):
	// New asks the configured peers for every block the store does not
	// already hold (transport.ChanSync, package syncsvc), admits the
	// stream into the store's recovered DAG (validating each block once),
	// journals the result, and restores the server from that one DAG. A
	// node with an empty or stale store thus starts within one streamed
	// round trip of the cluster instead of re-fetching the backlog one
	// FWD request at a time. Catch-up failure is not fatal — the fetched prefix is kept
	// and gossip's FWD path fills the remainder; CatchUpReport records
	// what happened.
	CatchUp *syncsvc.FetchConfig
	// FollowEvery enables the live-follower loop: every FollowEvery the
	// node sends a watermark-exchange query to the next of CatchUp's
	// peers in rotation (transport.ChanSync, one small frame each way)
	// and, when the peer's vector advertises blocks the local DAG lacks,
	// pulls exactly the missing suffix through the same validated delta
	// stream startup catch-up uses, absorbing the result into the
	// running server (journaled through the store's persistence sink,
	// referenced, interpreted). A node that falls behind — long GC
	// pause, flapping link, asymmetric partition — thus reconverges in
	// one streamed round trip instead of re-fetching the gap one FWD
	// round trip at a time; FWD stays armed as the fallback for anything
	// the follower has not pulled yet. Requires Config.CatchUp (the
	// follower reuses its Transport, Peers, and MaxBlocks).
	// A throttled or failing peer costs one poll period: the next poll
	// rotates to the next peer. 0 disables.
	FollowEvery time.Duration
	// CheckpointEverySegments, with Store set, makes every tick call
	// Store.Checkpoint whenever the WAL has accumulated that many
	// segments since the last snapshot — bounding disk, recovery time,
	// and the stream a catch-up server sends, and keeping a fresh
	// snapshot available for peers that sync from this node. 0 disables
	// segment-triggered checkpoints.
	CheckpointEverySegments int
	// CheckpointEveryBytes additionally triggers a checkpoint when the
	// store has grown this many bytes past its last compacted size (its
	// startup size initially) — growth past the compaction floor, not
	// absolute size: a DAG whose snapshot alone exceeds the threshold
	// must not re-snapshot on every tick. 0 disables the size trigger.
	CheckpointEveryBytes int64
	// RecentIndications bounds the indication broker's replay index (how
	// many distinct labels keep their latest indication available to
	// late Lookup callers; see IndicationBroker). 0 uses
	// DefaultRecentLabels.
	RecentIndications int
	// State, if non-nil, wires a Merkle-committed state machine into the
	// runtime: periodic sealed commitments journaled through the store's
	// checkpoint path, a served snapshot for joining peers
	// (ServedSnapshot → syncsvc.Server.Snapshot), startup restore from
	// the journaled checkpoint, and optional history pruning. Requires
	// Store. See StateSyncConfig.
	State *StateSyncConfig
}

// CatchUpReport records what startup catch-up did.
type CatchUpReport struct {
	// Ran reports that catch-up was configured and attempted.
	Ran bool
	// Blocks is the number of validated blocks received in bulk.
	Blocks int
	// Err is the terminal fetch error, nil after a clean stream. A
	// non-nil Err still leaves the node fully functional: the remainder
	// arrives via FWD.
	Err error
}

// FollowReport counts the live-follower loop's activity so far.
type FollowReport struct {
	// Polls is the number of watermark-exchange queries issued.
	Polls int
	// Deltas is the number of delta pulls opened (a peer was ahead).
	Deltas int
	// Blocks is the number of validated blocks absorbed via pulls.
	Blocks int
	// Throttled counts polls refused by a peer's admission policy —
	// the cue (already acted on) to rotate to the next peer.
	Throttled int
	// Errors counts polls and pulls that failed any other way.
	Errors int
	// LastErr is the most recent failure, nil if none (diagnostics; a
	// follower riding a healthy cluster keeps working through it).
	LastErr error
}

// Clock returns a monotonic clock suitable for core.Config.Clock on the
// real-time path.
func Clock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// inbound is one network delivery awaiting the loop.
type inbound struct {
	from    types.ServerID
	payload []byte
}

// request is one user request awaiting the loop.
type request struct {
	label types.Label
	data  []byte
}

// Node runs a core.Server, through its Replica core, on its own
// goroutine.
type Node struct {
	cfg Config
	rep *Replica

	// The ingestion channels are buffered beyond the usual one-or-none
	// guideline deliberately: they absorb network bursts while the loop
	// is mid-block; senders (transport read goroutines) block when the
	// buffer fills, which is the desired backpressure.
	in   chan inbound
	reqs chan request
	// posted carries the replica's transport callbacks (watermark
	// answers, settled delta pulls) home to the loop goroutine, which
	// owns all server state.
	posted chan func()

	cancel context.CancelFunc
	done   chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	started bool
	// stopHooks run at the head of Stop, before the loop is cancelled —
	// the graceful-drain seam: the client gateway registers its shutdown
	// here so in-flight HTTP requests finish (and long-polls get a clean
	// terminal response via the closed broker) while the server still
	// lives. stopOnce makes repeated Stops run the drain exactly once.
	stopHooks []func()
	stopOnce  sync.Once

	// broker fans the server's indication stream out to concurrent
	// subscribers (Indications). Installed as an indication observer
	// before the Restore replay, so its replay index covers pre-crash
	// indications too.
	broker *IndicationBroker

	catchUp CatchUpReport
}

// New validates the config and prepares a node. With Config.Store set,
// New performs the recover-resume handshake: the store's recovered DAG —
// extended by the bulk sync when Config.CatchUp is set, so the server
// restores store and stream in one pass — is handed to NewReplica, which
// replays it so the server continues its pre-crash chain and only then
// installs the store's persistence sink, so a failed New leaves the
// caller-owned server without a sink and free to retry.
func New(cfg Config) (*Node, error) {
	if cfg.Server == nil {
		return nil, errors.New("node: config needs a Server")
	}
	if err := validateState(&cfg); err != nil {
		return nil, err
	}
	if cfg.Identity != nil {
		if cfg.Identity.ID() != cfg.Server.ID() {
			return nil, fmt.Errorf("node: identity is server %d, core server is %d", cfg.Identity.ID(), cfg.Server.ID())
		}
	}
	if cfg.FollowEvery > 0 {
		switch {
		case cfg.CatchUp == nil:
			return nil, errors.New("node: FollowEvery needs Config.CatchUp (the follower reuses its transport and peers)")
		case cfg.CatchUp.Transport == nil || len(cfg.CatchUp.Peers) == 0:
			return nil, errors.New("node: FollowEvery needs CatchUp's Transport and Peers")
		}
	}
	if cfg.DisseminateEvery <= 0 {
		cfg.DisseminateEvery = 50 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 100 * time.Millisecond
	}
	n := &Node{
		cfg:    cfg,
		in:     make(chan inbound, 256),
		reqs:   make(chan request, 256),
		posted: make(chan func(), 4),
		done:   make(chan struct{}),
		broker: NewIndicationBroker(cfg.RecentIndications),
	}
	// The broker observes before the replay runs, so indications of
	// restored blocks land in its replay index: a gateway await for a
	// label delivered before the crash answers immediately after restart.
	if err := cfg.Server.AddIndicationObserver(n.broker.Publish); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	// d is the one validated DAG recovery and catch-up build up; Restore
	// replays it and it is dropped when New returns, so the history is
	// held once, by the server.
	var d *dag.DAG
	if cfg.Store != nil {
		if d = cfg.Store.TakeDAG(); d == nil {
			return nil, errors.New("node: the store's recovered DAG was already taken; reopen the store")
		}
	}
	var (
		tr    transport.Transport
		peers []types.ServerID
	)
	if cfg.CatchUp != nil {
		tr, peers = cfg.CatchUp.Transport, cfg.CatchUp.Peers
		if d == nil {
			d = dag.New(cfg.Server.DAG().Roster())
		}
		fetched, err := syncsvc.Fetch(*cfg.CatchUp, d)
		n.catchUp = CatchUpReport{Ran: true, Blocks: len(fetched), Err: err}
		if len(fetched) > 0 && cfg.Store != nil {
			// Journal the bulk stream so the next restart replays it from
			// disk instead of re-syncing — as one group commit: the whole
			// fetched backlog costs one write per segment run, and the
			// final Sync forces it out.
			if err := cfg.Store.AppendBatch(fetched); err != nil {
				return nil, fmt.Errorf("node: journal catch-up blocks: %w", err)
			}
			if err := cfg.Store.Sync(); err != nil {
				return nil, fmt.Errorf("node: sync catch-up blocks: %w", err)
			}
		}
	}
	rep, err := NewReplica(cfg, d, tr, peers, n.post)
	if err != nil {
		return nil, err
	}
	n.rep = rep
	return n, nil
}

// post hands one replica callback to the loop, dropping it if the node
// has stopped.
func (n *Node) post(fn func()) {
	select {
	case n.posted <- fn:
	case <-n.done:
	}
}

// CatchUpReport returns what startup catch-up did (zero value when
// Config.CatchUp was nil).
func (n *Node) CatchUpReport() CatchUpReport { return n.catchUp }

// FollowReport returns the live-follower loop's counters so far (zero
// value when Config.FollowEvery was 0). Safe for concurrent use.
func (n *Node) FollowReport() FollowReport { return n.rep.FollowReport() }

// AccountabilityReport is the node's view of the accountability layer:
// which peers it has banned on proven equivocation, and the decaying
// misbehaviour score of every peer it has penalized.
type AccountabilityReport struct {
	Banned []types.ServerID
	Peers  []peerscore.PeerStat
}

// AccountabilityReport snapshots the server's peer scorer. Zero value
// when accountability is off (no scorer wired). Safe for concurrent use.
func (n *Node) AccountabilityReport() AccountabilityReport {
	s := n.cfg.Server.Scores()
	return AccountabilityReport{Banned: s.BannedPeers(), Peers: s.Snapshot()}
}

// Watermarks returns this node's own watermark vector — the live source
// deployments hand to syncsvc.Server.Watermarks, so answering a peer's
// poll costs a few counters instead of a store scan (see
// Replica.Watermarks). Safe for concurrent use; transports call it from
// connection goroutines.
func (n *Node) Watermarks() []syncsvc.Watermark { return n.rep.Watermarks() }

// ServedSnapshot returns the node's current sealed snapshot for the sync
// service's snapshot tier (see Replica.ServedSnapshot). Safe for
// concurrent use.
func (n *Node) ServedSnapshot() *syncsvc.ServedSnapshot { return n.rep.ServedSnapshot() }

// StoreDiskSize reports the durable store's current on-disk size in
// bytes, false when the node runs without a store. Safe for concurrent
// use (it walks the directory; it does not touch the store's mutable
// state), so status endpoints may call it while the loop runs.
func (n *Node) StoreDiskSize() (int64, bool) {
	if n.cfg.Store == nil {
		return 0, false
	}
	size, err := n.cfg.Store.DiskSize()
	if err != nil {
		return 0, false
	}
	return size, true
}

// Start launches the loop goroutine. It is an error to start twice.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("node: already started")
	}
	n.started = true
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.loop(ctx)
	return nil
}

// Stop drains and terminates the node. The order matters for a clean
// front door: first the indication broker closes (waking every await and
// streaming subscriber with a terminal signal), then the registered stop
// hooks run — the gateway's hook waits for its in-flight HTTP requests to
// finish — and only then is the loop cancelled and awaited. A slow client
// request thus completes against a live server and gets a real response,
// not a connection reset. Idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.broker.Close()
		n.mu.Lock()
		hooks := append([]func(){}, n.stopHooks...)
		n.mu.Unlock()
		for _, h := range hooks {
			h()
		}
	})
	n.mu.Lock()
	cancel := n.cancel
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	n.wg.Wait()
}

// OnStop registers a hook Stop runs before tearing down the loop — the
// graceful-drain seam (package gateway registers its HTTP shutdown here).
// Hooks run in registration order, on the goroutine that called Stop.
// Registering after Stop has begun is a no-op.
func (n *Node) OnStop(hook func()) {
	if hook == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopHooks = append(n.stopHooks, hook)
}

// Indications returns the node's indication broker: the concurrency-safe
// subscription seam over the server's OnIndication stream. Never nil.
func (n *Node) Indications() *IndicationBroker { return n.broker }

// Deliver implements transport.Endpoint: queue a network payload for the
// loop. The payload is copied; transports may reuse their buffers.
// Deliveries after Stop are discarded.
func (n *Node) Deliver(from types.ServerID, payload []byte) {
	select {
	case n.in <- inbound{from: from, payload: append([]byte(nil), payload...)}:
	case <-n.done:
	}
}

// Request queues a user request (shim interface request(ℓ, r)). Requests
// after Stop are discarded.
func (n *Node) Request(label types.Label, data []byte) {
	select {
	case n.reqs <- request{label: label, data: append([]byte(nil), data...)}:
	case <-n.done:
	}
}

// Submit is the backpressure-aware request entry point. On a server with
// a mempool (core.Config.Mempool) it admits the request synchronously —
// the pool is safe for concurrent use, so this bypasses the request
// channel entirely — and returns the admission verdict (mempool.ErrFull,
// mempool.ErrDuplicate, a validation error, or nil), which gateways
// surface to their clients. Without a mempool it falls back to the
// fire-and-forget Request queue and reports nil.
func (n *Node) Submit(label types.Label, data []byte) error {
	if pool := n.cfg.Server.Mempool(); pool != nil {
		return pool.Submit(label, data)
	}
	n.Request(label, data)
	return nil
}

// Err returns the first runtime error observed by the loop or the
// replica core, combined with the server's own health.
func (n *Node) Err() error { return n.rep.Err() }

// Server exposes the underlying shim (read-only access such as DAG() and
// Metrics() is safe only after Stop, or from the indication callback which
// runs on the loop goroutine).
func (n *Node) Server() *core.Server { return n.cfg.Server }

func (n *Node) loop(ctx context.Context) {
	defer n.wg.Done()
	defer close(n.done)
	if n.cfg.Store != nil {
		// Clean shutdowns leave no unsynced tail, whatever the policy.
		defer func() { n.rep.recordErr(n.cfg.Store.Sync()) }()
	}
	srv := n.cfg.Server
	disseminate := time.NewTicker(n.cfg.DisseminateEvery)
	defer disseminate.Stop()
	tick := time.NewTicker(n.cfg.TickEvery)
	defer tick.Stop()
	var followTick <-chan time.Time
	if n.cfg.FollowEvery > 0 {
		ft := time.NewTicker(n.cfg.FollowEvery)
		defer ft.Stop()
		followTick = ft.C
	}

	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-n.in:
			n.deliverBurst(srv, msg)
		case rq := <-n.reqs:
			srv.Request(rq.label, rq.data)
		case <-disseminate.C:
			// A failed disseminate means the block could not be
			// persisted (broadcast withheld, server unhealthy) or
			// an internal invariant broke; record for Err(). The
			// loop keeps running: delivery, interpretation, and
			// FWD service stay up on an unhealthy server.
			n.rep.recordErr(srv.Disseminate())
		case <-tick.C:
			n.rep.Tick()
		case <-followTick:
			n.rep.Poll()
		case fn := <-n.posted:
			fn()
		}
	}
}

// ingestBurst bounds how many queued deliveries one loop iteration
// drains into a single DeliverBatch. It caps the latency the timers (and
// user requests) can accrue behind a network burst while still giving
// the batch verifier enough signatures to amortize across cores.
const ingestBurst = 64

// deliverBurst hands the first queued delivery plus everything else
// already waiting (up to ingestBurst) to the server in one batch, so a
// backlog pays one parallel signature-verification pass instead of one
// serial verify per message. With nothing else queued this degenerates
// to exactly the old per-message Deliver.
func (n *Node) deliverBurst(srv *core.Server, first inbound) {
	batch := make([]gossip.Message, 1, ingestBurst)
	batch[0] = gossip.Message{From: first.from, Payload: first.payload}
	for len(batch) < ingestBurst {
		select {
		case msg := <-n.in:
			batch = append(batch, gossip.Message{From: msg.from, Payload: msg.payload})
		default:
			srv.DeliverBatch(batch)
			return
		}
	}
	srv.DeliverBatch(batch)
}

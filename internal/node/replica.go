// The replica core: the deterministic half of the runtime. A Replica is
// driven from exactly one goroutine — the node's loop, or the cluster
// simulator's event loop — and uses no wall clock, ticker or channel of
// its own: time is the server's clock (core.Server.Now), and transport
// callbacks come home through the owner's post hook. Everything both
// runtimes around it must do identically lives here: the post-recovery
// wiring, the live follower, the checkpoint trigger, and the seal/prune
// cycle.

package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/dag"
	"blockdag/internal/peerscore"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Replica is the deterministic replica core a runtime drives a
// core.Server through. Its mutating methods (Tick, Poll, PollIfDue, and
// the callbacks it posts) must all be called from the owner's one
// goroutine; the report accessors are safe for concurrent use.
type Replica struct {
	cfg   Config
	srv   *core.Server
	tr    transport.Transport
	peers []types.ServerID
	post  func(func())

	// tracker maintains this replica's own watermark vector: seeded from
	// the restored DAG, advanced by the persistence sink. It answers
	// peers' watermark queries (Watermarks) and is the horizon the
	// follower compares their answers against. Thread-safe.
	tracker *syncsvc.WatermarkTracker

	// Follower state: inFlight marks the outstanding poll (at most one),
	// nextPeer is the rotation cursor, lastPoll the server-clock time of
	// the last poll opened (zero: never).
	inFlight bool
	nextPeer int
	lastPoll time.Duration

	// ckptFloor is the store's on-disk size after the last checkpoint (or
	// at startup): the baseline CheckpointEveryBytes growth is measured
	// from.
	ckptFloor int64

	// lastSeal/lastSealedSlot pace the seal cycle (server-clock time and
	// the machine slot of the last seal).
	lastSeal       time.Duration
	lastSealedSlot uint64

	mu       sync.Mutex
	follow   FollowReport
	served   *syncsvc.ServedSnapshot
	firstErr error
}

// NewReplica performs the post-recovery wiring on cfg.Server, which must
// be freshly built: rebuild cfg.State's machine from the store's
// journaled checkpoint, Restore d (the validated DAG recovery and
// catch-up built; nil for a fresh server), seed the watermark tracker,
// and install the persistence sink — the store's PersistSink (own blocks
// durable before gossip broadcasts them) plus the tracker — and the
// store as the group-commit batcher. A failed NewReplica leaves the
// server without a sink, free to retry.
//
// tr and peers are the follower's sync transport and rotation, used only
// when cfg.FollowEvery > 0; post runs a transport callback on the
// owner's goroutine, and may drop it once the owner has retired this
// replica. cfg.CatchUp is read for MaxBlocks only: the blocking startup
// fetch is node.New's job.
func NewReplica(cfg Config, d *dag.DAG, tr transport.Transport, peers []types.ServerID, post func(func())) (*Replica, error) {
	if cfg.Server == nil {
		return nil, errors.New("node: config needs a Server")
	}
	if err := validateState(&cfg); err != nil {
		return nil, err
	}
	if cfg.FollowEvery > 0 && (tr == nil || len(peers) == 0 || post == nil) {
		return nil, errors.New("node: the follower needs a transport, peers and a post hook")
	}
	r := &Replica{
		cfg:     cfg,
		srv:     cfg.Server,
		tr:      tr,
		peers:   peers,
		post:    post,
		tracker: syncsvc.NewWatermarkTracker(),
	}
	st := cfg.Store
	if cfg.State != nil {
		// Rebuild the machine from the journaled checkpoint (and
		// fast-forward the smr frontier) before the Restore replay below
		// fires indications for the slots above it.
		if err := r.restoreState(); err != nil {
			return nil, err
		}
	}
	if d != nil {
		if err := r.srv.Restore(d); err != nil {
			return nil, fmt.Errorf("node: restore from store: %w", err)
		}
	}
	if st != nil {
		// A pruned store's tracker starts at the horizon: the vector
		// claims the pruned prefix (covered by the certified snapshot)
		// without ever observing it.
		r.tracker.SeedHorizon(st.Horizon())
	}
	for b := range r.srv.DAG().All() {
		r.tracker.Observe(b)
	}
	persist := func(b *block.Block) error {
		r.tracker.Observe(b)
		return nil
	}
	if st != nil {
		// PersistSink, not a bare Append: own blocks must be durable
		// before gossip broadcasts them, or a power cut sets up a
		// post-crash self-equivocation (see the store package docs).
		sink := st.PersistSink(r.srv.ID())
		persist = func(b *block.Block) error {
			if err := sink(b); err != nil {
				return err
			}
			r.tracker.Observe(b)
			return nil
		}
	}
	if err := r.srv.SetPersist(persist); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if st == nil {
		return r, nil
	}
	// Group-commit ingest bursts: DeliverBatch brackets its burst in one
	// store batch, so 64 received blocks cost one write syscall and one
	// fsync decision instead of 64 (see core.DeliverBatch for why the
	// own-block durability barrier is unaffected).
	if err := r.srv.SetPersistBatcher(st); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if cfg.CheckpointEveryBytes > 0 {
		floor, err := st.DiskSize()
		if err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
		r.ckptFloor = floor
	}
	return r, nil
}

// Tick runs the time-driven policy at the server clock's current
// reading: gossip's FWD retries, the store's interval fsync, the
// seal/prune cycle, and the checkpoint trigger.
func (r *Replica) Tick() {
	r.srv.Tick(r.srv.Now())
	if r.cfg.Store == nil {
		return
	}
	r.recordErr(r.cfg.Store.Tick())
	r.maybeSealState()
	r.maybeCheckpoint()
}

// Poll opens one watermark-exchange query against the next peer in
// rotation. At most one poll (query or delta pull) is in flight at a
// time, so a slow peer stretches the period instead of stacking
// requests. Score-weighted rotation: with a scorer configured
// (core.Config.Scores) the poll prefers peers outside quarantine and
// never targets a banned one; without, this is plain round-robin.
func (r *Replica) Poll() {
	if r.inFlight || r.cfg.FollowEvery <= 0 {
		return
	}
	peer, ok := r.srv.Scores().Pick(r.peers, r.nextPeer)
	r.nextPeer++
	if !ok {
		return // every sync peer is banned; FWD gossip remains the fallback
	}
	r.inFlight = true
	r.lastPoll = r.srv.Now()
	r.noteFollow(func(rep *FollowReport) { rep.Polls++ })
	query := syncsvc.NewWatermarkQuery(func(wms []syncsvc.Watermark, err error) {
		r.post(func() { r.decide(peer, wms, err) })
	})
	r.tr.Call(peer, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), query)
}

// PollIfDue polls once FollowEvery has elapsed on the server clock since
// the last poll — the follow period for owners that tick the replica
// instead of running a follow timer (the simulator's virtual time).
func (r *Replica) PollIfDue() {
	if r.cfg.FollowEvery > 0 && r.srv.Now()-r.lastPoll >= r.cfg.FollowEvery {
		r.Poll()
	}
}

// decide consumes a watermark answer: when the peer advertises blocks
// outside the tracker's horizon, pull exactly the missing suffix into a
// clone of the live DAG (dag.Clone is structural, so no held block is
// verified again; the live DAG stays untouched until absorb).
func (r *Replica) decide(peer types.ServerID, wms []syncsvc.Watermark, err error) {
	if err != nil {
		r.settle(peer, err)
		return
	}
	if !syncsvc.Behind(r.tracker.Horizon(), wms) {
		r.settle(peer, nil) // in sync with this peer; nothing to pull
		return
	}
	maxBlocks := 0
	if r.cfg.CatchUp != nil {
		maxBlocks = r.cfg.CatchUp.MaxBlocks
	}
	r.noteFollow(func(rep *FollowReport) { rep.Deltas++ })
	pull := syncsvc.NewPull(r.srv.DAG().Clone(), maxBlocks)
	pull.Then(func() { r.post(func() { r.absorb(peer, pull) }) })
	r.tr.Call(peer, transport.ChanSync, pull.Request(), pull)
}

// absorb feeds a settled delta pull's blocks to the running server.
// Every one passed full validation whatever the stream's terminal error,
// so a truncated or lying stream still yields its genuine prefix; the
// rest arrives on a later poll or via FWD. The absorption is one store
// group commit: the pulled suffix journals with one write per segment
// run instead of one per block. Persist trouble is latched in the
// server's Health and recorded here.
func (r *Replica) absorb(peer types.ServerID, pull *syncsvc.Pull) {
	blocks, streamErr := pull.Result()
	st := r.cfg.Store
	if st != nil {
		st.BeginBatch()
	}
	absorbed := 0
	var absorbErr error
	for _, b := range blocks {
		if absorbErr = r.srv.AbsorbVerified(b); absorbErr != nil {
			break
		}
		absorbed++
	}
	if st != nil {
		r.recordErr(st.FlushBatch())
	}
	r.recordErr(absorbErr)
	r.noteFollow(func(rep *FollowReport) { rep.Blocks += absorbed })
	r.settle(peer, streamErr)
}

// settle finishes the in-flight poll, classifying its outcome. A
// throttled or failed peer costs nothing beyond the poll period — the
// next poll rotates to the next peer; with a scorer configured, a
// throttling peer additionally loses standing in the rotation.
func (r *Replica) settle(peer types.ServerID, err error) {
	r.inFlight = false
	if err == nil {
		return
	}
	throttled := errors.Is(err, syncsvc.ErrThrottled)
	if throttled {
		r.srv.Scores().Penalize(peer, peerscore.Throttled)
	}
	r.noteFollow(func(rep *FollowReport) {
		if throttled {
			rep.Throttled++
		} else {
			rep.Errors++
		}
		rep.LastErr = err
	})
}

// noteFollow applies one mutation to the follow counters under the lock
// (FollowReport readers are concurrent).
func (r *Replica) noteFollow(fn func(*FollowReport)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.follow)
}

// FollowReport returns the follower's counters so far (zero value when
// FollowEvery is 0). Safe for concurrent use.
func (r *Replica) FollowReport() FollowReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.follow
}

// Watermarks returns this replica's own watermark vector — the live
// source owners hand to syncsvc.Server.Watermarks, so answering a
// peer's poll costs a few counters instead of a store scan. Safe for
// concurrent use.
func (r *Replica) Watermarks() []syncsvc.Watermark { return r.tracker.Snapshot() }

// maybeCheckpoint runs the automatic checkpoint policy: snapshot and
// compact the store once the WAL segment count, or the growth in on-disk
// bytes since the last compaction, crosses its configured threshold. It
// runs on the owner's goroutine, which holds both the server's DAG and
// the store, so the snapshot is taken at a consistent point between
// events.
func (r *Replica) maybeCheckpoint() {
	st := r.cfg.Store
	trigger := r.cfg.CheckpointEverySegments > 0 &&
		st.WALSegments() >= r.cfg.CheckpointEverySegments
	if !trigger && r.cfg.CheckpointEveryBytes > 0 {
		size, err := st.DiskSize()
		if err != nil {
			r.recordErr(err)
			return
		}
		trigger = size >= r.ckptFloor+r.cfg.CheckpointEveryBytes
	}
	if !trigger {
		return
	}
	stats, err := st.Checkpoint(r.srv.DAG())
	if err == nil {
		r.ckptFloor = stats.BytesAfter
	}
	r.recordErr(err)
}

// Err returns the first error the replica's policy recorded (persist,
// fsync, checkpoint, prune), else the server's own health.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr != nil {
		return r.firstErr
	}
	return r.srv.Health()
}

func (r *Replica) recordErr(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr == nil {
		r.firstErr = err
	}
}

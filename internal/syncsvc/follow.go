// Live-follower support: the watermark-exchange side of the sync
// protocol. A running node periodically asks a rotating peer for its
// watermark vector (one cheap call, one small frame) and opens a delta
// stream — the same validated bulk pull startup catch-up uses — only
// when the peer actually holds blocks the local DAG does not. See the
// package comment for the protocol and threat model.

package syncsvc

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// EncodeWatermarkRequest renders a watermark-exchange query — the probe
// a live follower sends every poll period.
func EncodeWatermarkRequest() []byte {
	return []byte{reqWatermarks}
}

// EncodeWatermarkFrame renders the server's answer to a watermark query:
// its own vector in one frame.
func EncodeWatermarkFrame(wms []Watermark) []byte {
	w := wire.NewWriter(2 + len(wms)*6)
	w.Byte(frameWatermarks)
	encodeWatermarkList(w, wms)
	return w.Bytes()
}

// DecodeWatermarkFrame inverts EncodeWatermarkFrame.
func DecodeWatermarkFrame(frame []byte) ([]Watermark, error) {
	r := wire.NewReader(frame)
	if k := r.Byte(); r.Err() == nil && k != frameWatermarks {
		return nil, fmt.Errorf("syncsvc: unexpected frame kind %d, want watermarks", k)
	}
	wms := decodeWatermarkList(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("syncsvc: bad watermark frame: %w", err)
	}
	return wms, nil
}

// Horizon returns, per builder, the maximum held sequence number plus
// one — over every held block, forked chains included. This is the
// vector Behind compares a peer's claims against: unlike Watermarks it
// never omits an equivocating builder, so a follower that already holds
// a forked builder's blocks is not re-pulled every poll. (Equivocation
// variants beyond the horizon cannot be expressed in either vector;
// their repair rides the FWD path, which stays armed regardless.)
func Horizon(blocks iter.Seq[*block.Block]) map[types.ServerID]uint64 {
	horizon := make(map[types.ServerID]uint64)
	for b := range blocks {
		if next := b.Seq + 1; next > horizon[b.Builder] {
			horizon[b.Builder] = next
		}
	}
	return horizon
}

// Behind reports whether a peer's advertised watermark vector names any
// block outside the local horizon — the trigger for a delta pull. A
// peer can lie here in either direction: claiming too little makes the
// follower skip a pull (no worse than not polling that peer), claiming
// too much makes it open one delta stream whose blocks are then fully
// validated — so a lying peer wastes one round trip, never poisons
// state.
func Behind(local map[types.ServerID]uint64, peer []Watermark) bool {
	for _, wm := range peer {
		if wm.NextSeq > local[wm.Builder] {
			return true
		}
	}
	return false
}

// WatermarkQuery is the client side of one watermark-exchange call: a
// transport.CallSink that collects the peer's vector. Safe for
// concurrent sink invocation and inspection.
type WatermarkQuery struct {
	mu     sync.Mutex
	wms    []Watermark
	got    bool
	err    error
	done   bool
	notify chan struct{}
	onDone func([]Watermark, error)
}

var _ transport.CallSink = (*WatermarkQuery)(nil)

// NewWatermarkQuery prepares a query. onDone, if non-nil, is invoked
// exactly once when the call terminates — from the transport's sink
// goroutine (or the simulator's event loop), so it must either be safe
// there or hand off to the owning loop, as the node runtime does.
func NewWatermarkQuery(onDone func([]Watermark, error)) *WatermarkQuery {
	return &WatermarkQuery{notify: make(chan struct{}), onDone: onDone}
}

// OnFrame implements transport.CallSink.
func (q *WatermarkQuery) OnFrame(frame []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done || q.err != nil {
		return
	}
	if q.got {
		q.err = errors.New("syncsvc: second frame on a watermark query")
		return
	}
	wms, err := DecodeWatermarkFrame(frame)
	if err != nil {
		q.err = err
		return
	}
	q.wms, q.got = wms, true
}

// OnDone implements transport.CallSink.
func (q *WatermarkQuery) OnDone(err error) {
	q.mu.Lock()
	if q.done {
		q.mu.Unlock()
		return
	}
	if q.err == nil && err != nil {
		q.err = normalizeRemoteErr(err)
	}
	if q.err == nil && !q.got {
		q.err = errors.New("syncsvc: watermark query ended without a vector")
	}
	q.done = true
	wms, qerr, onDone := q.wms, q.err, q.onDone
	close(q.notify)
	q.mu.Unlock()
	if onDone != nil {
		onDone(wms, qerr)
	}
}

// Done reports whether the query has terminated — the condition
// simulator-driven clients run the network until.
func (q *WatermarkQuery) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done
}

// Wait blocks until the query terminates or the timeout passes,
// reporting false on timeout — for real-transport clients.
func (q *WatermarkQuery) Wait(timeout time.Duration) bool {
	select {
	case <-q.notify:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Result returns the peer's vector and the query's terminal error.
func (q *WatermarkQuery) Result() ([]Watermark, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wms, q.err
}

// DeltaIfBehind is the decision core of one follow poll, shared by the
// node runtime and the cluster simulator so the two drivers cannot
// diverge: given the peer's advertised vector, return nil when the peer
// holds nothing outside the local horizon, otherwise a delta pull that
// extends a clone of the local DAG (dag.Clone is structural only, so no
// held block is verified again; the live DAG stays untouched until
// AbsorbPull). horizon may be nil, in which case it is computed from the
// DAG — pass a tracker-maintained horizon to keep the in-sync fast path
// O(#builders) instead of O(DAG).
func DeltaIfBehind(d *dag.DAG, horizon map[types.ServerID]uint64, peer []Watermark, maxBlocks int) *Pull {
	if horizon == nil {
		horizon = Horizon(d.All())
		// A pruned DAG holds nothing below its base horizon, but is not
		// behind there either: the certified snapshot covers it.
		for builder, h := range d.BaseHorizon() {
			if h > horizon[builder] {
				horizon[builder] = h
			}
		}
	}
	if !Behind(horizon, peer) {
		return nil
	}
	return NewPull(d.Clone(), maxBlocks)
}

// AbsorbPull feeds every validated block of a settled pull to absorb
// (the server's verified-insert entry point), in stream order, stopping
// at the first absorb error. The two returned errors are distinct
// failures: absorbErr is local trouble (persist or invariant, already
// latched in the server's health), streamErr is the pull's terminal
// error (the peer misbehaved or the link broke) — the absorbed prefix
// is genuine either way.
func AbsorbPull(p *Pull, absorb func(*block.Block) error) (absorbed int, absorbErr, streamErr error) {
	blocks, streamErr := p.Result()
	for _, b := range blocks {
		if absorbErr = absorb(b); absorbErr != nil {
			break
		}
		absorbed++
	}
	return absorbed, absorbErr, streamErr
}

// PullDone wraps a Pull as the sink for its own call, running fn once
// the stream settles (after the Pull recorded its terminal state). Both
// follower drivers — the node runtime handing results back to its loop
// and the cluster simulator absorbing on the event loop — hang their
// continuation here.
func PullDone(p *Pull, fn func()) transport.CallSink {
	return &pullDoneSink{pull: p, fn: fn}
}

type pullDoneSink struct {
	pull *Pull
	fn   func()
}

func (s *pullDoneSink) OnFrame(frame []byte) { s.pull.OnFrame(frame) }

func (s *pullDoneSink) OnDone(err error) {
	s.pull.OnDone(err)
	s.fn()
}

// WatermarkTracker maintains a server's own watermark vector
// incrementally, so watermark queries are answered from a few counters
// instead of a store scan. It is safe for concurrent use: the node loop
// observes blocks as they persist while transport goroutines snapshot
// the vector for peers.
//
// Observation order is the DAG insertion order, whose parent rule
// guarantees per-builder sequence numbers arrive contiguously from 0 —
// so one next-seq counter per builder suffices; a repeated or
// out-of-order sequence number marks the builder forked (equivocation),
// which drops it from the vector exactly as Watermarks would.
type WatermarkTracker struct {
	mu     sync.Mutex
	chains map[types.ServerID]*trackedChain
}

type trackedChain struct {
	next   uint64
	forked bool
}

// NewWatermarkTracker returns an empty tracker; seed it by observing the
// blocks recovered from the store in replay order.
func NewWatermarkTracker() *WatermarkTracker {
	return &WatermarkTracker{chains: make(map[types.ServerID]*trackedChain)}
}

// SeedHorizon primes the tracker at a pruned store's horizon: each
// builder's counter starts at its first retained sequence number, so
// the advertised vector claims the pruned prefix (covered by the
// certified snapshot) without ever having observed it. Call once,
// before any Observe; counters only move forward.
func (t *WatermarkTracker) SeedHorizon(horizon map[types.ServerID]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for builder, h := range horizon {
		c := t.chains[builder]
		if c == nil {
			c = &trackedChain{}
			t.chains[builder] = c
		}
		if h > c.next {
			c.next = h
		}
	}
}

// Observe records one block now held durably. Call in insertion order.
func (t *WatermarkTracker) Observe(b *block.Block) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chains[b.Builder]
	if c == nil {
		c = &trackedChain{}
		t.chains[b.Builder] = c
	}
	if b.Seq == c.next {
		c.next++
		return
	}
	// A slot revisited (equivocation variant) or skipped (an
	// out-of-contract feed): either way the single-chain-prefix claim no
	// longer holds, so the builder leaves the vector.
	c.forked = true
	if b.Seq >= c.next {
		c.next = b.Seq + 1
	}
}

// Horizon returns the tracker's per-builder horizon — next sequence
// number per builder, forked builders included — the O(#builders)
// equivalent of Horizon over the tracked block set, for the follower's
// Behind check.
func (t *WatermarkTracker) Horizon() map[types.ServerID]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	horizon := make(map[types.ServerID]uint64, len(t.chains))
	for builder, c := range t.chains {
		if c.next > 0 {
			horizon[builder] = c.next
		}
	}
	return horizon
}

// Snapshot returns the current vector, sorted by builder.
func (t *WatermarkTracker) Snapshot() []Watermark {
	t.mu.Lock()
	defer t.mu.Unlock()
	wms := make([]Watermark, 0, len(t.chains))
	for builder, c := range t.chains {
		if c.forked || c.next == 0 {
			continue
		}
		wms = append(wms, Watermark{Builder: builder, NextSeq: c.next})
	}
	slices.SortFunc(wms, func(a, b Watermark) int {
		return int(a.Builder) - int(b.Builder)
	})
	return wms
}

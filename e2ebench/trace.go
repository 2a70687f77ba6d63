package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"blockdag/internal/block"
	"blockdag/internal/protocol"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// The traced run wraps the public seams between layers with forwarding
// types that record spans. Every wrapper forwards every interface the
// value it hides implements (protocol.EntropyAware, Transport.Call), so
// the traced program takes the same paths as the untraced one. Payloads
// are only ever parsed read-only.

// span is one timed call at a layer boundary. Times are nanoseconds since
// epoch; Trace is the label or block ref the call worked on.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory span log. Spans past it are only counted
// (tracer.dropped); the per-layer metrics come from the tracer's own
// tallies, which never drop.
const maxSpans = 200_000

// protoSampleEvery keeps one protocol span in this many: protocol calls
// run ~30 per label per replica, so recording each would dwarf the work
// they time. Their totals are always exact.
const protoSampleEvery = 64

// gossipKindBlock is the gossip wire kind byte of a block message (the
// first payload byte, followed by the varint-framed block encoding).
const gossipKindBlock = 1

type tracer struct {
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
	// submitSpan maps a label to its mempool.submit span, so the client's
	// HTTP span can adopt it as a child; submitNs keeps the call's
	// duration even when the span log is full.
	submitSpan map[types.Label]int
	submitNs   map[types.Label]int64
	// firstSend is each own block's first Send by its builder; bcast is
	// the first broadcast of the block carrying each label.
	firstSend map[block.Ref]int64
	bcast     map[types.Label]int64
	// sendToDeliverMs pairs a builder's first Send with each direct
	// Deliver of the same block at a peer; deliverUs is how long
	// node.Deliver held the transport goroutine.
	sendToDeliverMs []float64
	deliverUs       []float64
	serveMs         []float64

	sends, sendBytes    atomic.Int64
	protoCalls, protoNs atomic.Int64
	protoSample         atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		submitSpan: make(map[types.Label]int),
		submitNs:   make(map[types.Label]int64),
		firstSend:  make(map[block.Ref]int64),
		bcast:      make(map[types.Label]int64),
	}
}

// newRound forgets the previous cluster's blocks: a fresh cluster's
// genesis blocks repeat the last one's refs.
func (tc *tracer) newRound() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.firstSend = make(map[block.Ref]int64)
}

// record appends a span under a fresh ID.
func (tc *tracer) record(name, trace string, parent, start, end int64) {
	tc.recordID(tc.nextID.Add(1), name, trace, parent, start, end)
}

// recordID appends a span whose ID was drawn earlier (a parent whose
// children finish first).
func (tc *tracer) recordID(id int64, name, trace string, parent, start, end int64) {
	tc.mu.Lock()
	tc.appendLocked(span{ID: id, Parent: parent, Name: name, Trace: trace, Start: start, End: end})
	tc.mu.Unlock()
}

func (tc *tracer) appendLocked(s span) int {
	if len(tc.spans) >= maxSpans {
		tc.dropped++
		return -1
	}
	tc.spans = append(tc.spans, s)
	return len(tc.spans) - 1
}

// decodeGossipBlock parses a gossip payload read-only, returning the
// block it carries or nil for FWD/evidence frames.
func decodeGossipBlock(payload []byte) *block.Block {
	r := wire.NewReader(payload)
	if r.Byte() != gossipKindBlock {
		return nil
	}
	enc := r.VarBytes()
	if r.Close() != nil {
		return nil
	}
	b, err := block.Decode(enc)
	if err != nil {
		return nil
	}
	return b
}

// tracedTransport wraps a server's outbound transport (core.Config.Transport
// and the catch-up/follow transport).
type tracedTransport struct {
	inner transport.Transport
	tc    *tracer
}

var _ transport.Transport = (*tracedTransport)(nil)

func (w *tracedTransport) Self() types.ServerID { return w.inner.Self() }

func (w *tracedTransport) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	tc := w.tc
	start := now()
	trace := ""
	if ch == transport.ChanGossip {
		if b := decodeGossipBlock(payload); b != nil {
			trace = b.Ref().String()
			if b.Builder == w.inner.Self() {
				tc.mu.Lock()
				if _, seen := tc.firstSend[b.Ref()]; !seen {
					tc.firstSend[b.Ref()] = start
					for _, rq := range b.Requests {
						if _, ok := tc.bcast[rq.Label]; !ok {
							tc.bcast[rq.Label] = start
						}
					}
				}
				tc.mu.Unlock()
			}
		}
	}
	w.inner.Send(to, ch, payload)
	tc.sends.Add(1)
	tc.sendBytes.Add(int64(len(payload)))
	tc.record("transport.send", trace, 0, start, now())
}

func (w *tracedTransport) Call(to types.ServerID, ch transport.Channel, req []byte, sink transport.CallSink) func() {
	return w.inner.Call(to, ch, req, &tracedSink{inner: sink, tc: w.tc, start: now()})
}

// tracedSink closes a transport.call span when the stream ends.
type tracedSink struct {
	inner transport.CallSink
	tc    *tracer
	start int64
}

func (s *tracedSink) OnFrame(frame []byte) { s.inner.OnFrame(frame) }

func (s *tracedSink) OnDone(err error) {
	s.tc.record("transport.call", "", 0, s.start, now())
	s.inner.OnDone(err)
}

// tracedEndpoint wraps the node runtime bound into the gossip LateBound:
// it times how long node.Deliver blocks the transport's read goroutine
// and matches delivered blocks to their builder's Send.
type tracedEndpoint struct {
	inner transport.Endpoint
	tc    *tracer
}

func (e *tracedEndpoint) Deliver(from types.ServerID, payload []byte) {
	tc := e.tc
	start := now()
	var ref block.Ref
	direct := false
	if b := decodeGossipBlock(payload); b != nil && b.Builder == from {
		ref, direct = b.Ref(), true
	}
	e.inner.Deliver(from, payload)
	end := now()
	tc.mu.Lock()
	if direct {
		if sent, ok := tc.firstSend[ref]; ok {
			tc.sendToDeliverMs = append(tc.sendToDeliverMs, float64(start-sent)/1e6)
		}
	}
	tc.deliverUs = append(tc.deliverUs, float64(end-start)/1e3)
	trace := ""
	if direct {
		trace = ref.String()
	}
	tc.appendLocked(span{ID: tc.nextID.Add(1), Name: "node.deliver", Trace: trace, Start: start, End: end})
	tc.mu.Unlock()
}

// tracedHandler wraps the sync service's call handler.
type tracedHandler struct {
	inner transport.Handler
	tc    *tracer
}

func (h *tracedHandler) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	start := now()
	h.inner.ServeCall(from, req, st)
	end := now()
	h.tc.record("syncsvc.serve", "", 0, start, end)
	h.tc.mu.Lock()
	h.tc.serveMs = append(h.tc.serveMs, float64(end-start)/1e6)
	h.tc.mu.Unlock()
}

// tracedSubmit wraps gateway.Config.Submit (the node's Submit).
func (tc *tracer) tracedSubmit(submit func(types.Label, []byte) error) func(types.Label, []byte) error {
	return func(label types.Label, data []byte) error {
		start := now()
		err := submit(label, data)
		end := now()
		tc.mu.Lock()
		tc.submitNs[label] = end - start
		if i := tc.appendLocked(span{ID: tc.nextID.Add(1), Name: "mempool.submit", Trace: string(label), Start: start, End: end}); i >= 0 {
			tc.submitSpan[label] = i
		}
		tc.mu.Unlock()
		return err
	}
}

// httpSpan records the client's POST round trip and adopts the
// server-side submit span as its child. It returns the submit call's
// duration in nanoseconds (0 if it was not recorded).
func (tc *tracer) httpSpan(label types.Label, start, end int64) int64 {
	id := tc.nextID.Add(1)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if i, ok := tc.submitSpan[label]; ok {
		tc.spans[i].Parent = id
		delete(tc.submitSpan, label)
	}
	child := tc.submitNs[label]
	delete(tc.submitNs, label)
	tc.appendLocked(span{ID: id, Name: "gateway.http", Trace: string(label), Start: start, End: end})
	return child
}

// tracedProtocol wraps the embedded protocol P so every process instance
// the interpreter creates (and clones) is timed.
type tracedProtocol struct {
	inner protocol.Protocol
	tc    *tracer
}

func (p tracedProtocol) Name() string { return p.inner.Name() }

func (p tracedProtocol) NewProcess(cfg protocol.Config) protocol.Process {
	return p.tc.wrapProcess(p.inner.NewProcess(cfg), cfg.Label)
}

func (tc *tracer) wrapProcess(p protocol.Process, label types.Label) protocol.Process {
	base := &tracedProcess{inner: p, tc: tc, label: label}
	if ea, ok := p.(protocol.EntropyAware); ok {
		return &tracedEntropyProcess{tracedProcess: base, ea: ea}
	}
	return base
}

type tracedProcess struct {
	inner protocol.Process
	tc    *tracer
	label types.Label
}

func (p *tracedProcess) time(name string, start int64) {
	end := now()
	p.tc.protoCalls.Add(1)
	p.tc.protoNs.Add(end - start)
	if p.tc.protoSample.Add(1)%protoSampleEvery == 0 {
		p.tc.record(name, string(p.label), 0, start, end)
	}
}

func (p *tracedProcess) Request(data []byte) []protocol.Message {
	start := now()
	out := p.inner.Request(data)
	p.time("protocol.request", start)
	return out
}

func (p *tracedProcess) Receive(m protocol.Message) []protocol.Message {
	start := now()
	out := p.inner.Receive(m)
	p.time("protocol.receive", start)
	return out
}

func (p *tracedProcess) Indications() [][]byte { return p.inner.Indications() }
func (p *tracedProcess) Done() bool            { return p.inner.Done() }
func (p *tracedProcess) StateDigest() []byte   { return p.inner.StateDigest() }
func (p *tracedProcess) Clone() protocol.Process {
	return p.tc.wrapProcess(p.inner.Clone(), p.label)
}

// tracedEntropyProcess is tracedProcess for instances implementing
// protocol.EntropyAware; the plain wrapper must not claim the interface,
// or the interpreter would derive seeds it otherwise skips.
type tracedEntropyProcess struct {
	*tracedProcess
	ea protocol.EntropyAware
}

func (p *tracedEntropyProcess) SetEntropy(seed [32]byte) { p.ea.SetEntropy(seed) }

// layerSelf is one layer's self time summed over its spans.
type layerSelf struct {
	Layer  string
	Spans  int
	SelfMs float64
}

// selfTimes derives each layer's self time: a span's duration minus the
// part its children cover, summed per layer (the span name's prefix).
// Protocol spans are sampled, so that layer uses the exact totals.
func (tc *tracer) selfTimes() []layerSelf {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	childNs := make(map[int64]int64)
	for _, s := range tc.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	agg := make(map[string]*layerSelf)
	for _, s := range tc.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if layer == "protocol" {
			continue
		}
		l := agg[layer]
		if l == nil {
			l = &layerSelf{Layer: layer}
			agg[layer] = l
		}
		l.Spans++
		l.SelfMs += float64(s.End-s.Start-childNs[s.ID]) / 1e6
	}
	agg["protocol"] = &layerSelf{Layer: "protocol", Spans: int(tc.protoCalls.Load()), SelfMs: float64(tc.protoNs.Load()) / 1e6}
	out := make([]layerSelf, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// dump writes the span log as JSON lines.
func (tc *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := tc.writeSpans(w); err != nil {
		_ = f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

func (tc *tracer) writeSpans(w io.Writer) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range tc.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// Package brb implements byzantine reliable broadcast — the paper's worked
// example P (Section 5) — as authenticated double-echo broadcast after
// Cachin–Guerraoui–Rodrigues [3, Module 3.12], reproduced in the paper's
// Algorithm 4.
//
// Interface I: requests Rqsts = {broadcast(v)}, indications
// Inds = {deliver(v)}. Messages M = {ECHO v, READY v}.
//
// Properties P (validity, no duplication, integrity, consistency,
// totality) are proved for the protocol over an authenticated perfect
// point-to-point link; Theorem 5.1 transfers them to the embedding, which
// the integration tests in internal/core verify.
//
// The protocol is deterministic: state plus received message sequence
// fully determine behaviour, as the embedding requires.
package brb

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/wire"
)

// Message kinds carried in protocol.Message payloads.
const (
	msgEcho  byte = 1
	msgReady byte = 2
)

// Protocol is the byzantine reliable broadcast protocol factory. The zero
// value is ready to use.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "brb" }

// NewProcess implements protocol.Protocol.
func (Protocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &process{cfg: cfg, words: (cfg.N + 63) / 64}
}

// process is one BRB process instance (Algorithm 4 state): the flags
// echoed, readied, delivered, plus one tally per distinct value seen, in
// first-seen order. Sender bitsets keep their first word (senders 0–63)
// in the tally; for N > 64 the rest live in more, tally i's kind-k words
// at more[(2i+k)·(words-1):]. Tallies alias received payload bytes, which
// are never mutated (see protocol.Message), so for N ≤ 64 Clone is one
// struct copy plus one slice copy.
type process struct {
	cfg       protocol.Config
	words     int // uint64 words per sender bitset
	echoed    bool
	readied   bool
	delivered bool
	tallies   []tally
	more      []uint64
	pending   [][]byte // delivered values not yet drained by Indications
}

// tally is the quorum state of one value v. Per kind k (kind-1: ECHO,
// READY) it holds the distinct-sender count, the sender bitset's first
// word, and a canonical payload — the first received, or the one built on
// first emission — so echoing and amplifying re-emit bytes instead of
// re-encoding v.
type tally struct {
	value    []byte
	count    [2]int
	first    [2]uint64
	payloads [2][]byte
}

var _ protocol.Process = (*process)(nil)

// payloadLen is the length of encodePayload(kind, value).
func payloadLen(value []byte) int {
	var prefix [binary.MaxVarintLen64]byte
	return 1 + binary.PutUvarint(prefix[:], uint64(len(value))) + len(value)
}

func encodePayload(kind byte, value []byte) []byte {
	w := wire.NewWriter(payloadLen(value))
	w.Byte(kind)
	w.VarBytes(value)
	return w.Bytes()
}

// decodePayload splits a payload into its kind and value, a sub-slice of
// data. ok is false for anything encodePayload cannot have produced,
// bar a non-minimal length prefix.
func decodePayload(data []byte) (kind byte, value []byte, ok bool) {
	if len(data) == 0 || (data[0] != msgEcho && data[0] != msgReady) {
		return 0, nil, false
	}
	n, k := binary.Uvarint(data[1:])
	if k <= 0 || n > wire.MaxFrame || n != uint64(len(data)-1-k) {
		return 0, nil, false
	}
	return data[0], data[1+k:], true
}

// Request implements broadcast(v) (Algorithm 4 lines 3–5): set echoed and
// send ECHO v to every server. Authentication of the request is inherited
// from the block signature that carried it (paper Section 5). A repeated
// or post-echo request is ignored — the instance broadcasts at most once.
func (p *process) Request(data []byte) []protocol.Message {
	if p.echoed {
		return nil
	}
	p.echoed = true
	return protocol.FanOut(p.cfg, encodePayload(msgEcho, data))
}

// Receive implements the three message handlers of Algorithm 4 lines 6–17.
// Malformed payloads (only byzantine servers produce them — correct
// messages are materialized from correct interpretation) are dropped, as
// are senders outside the system, which no interpreter can materialize.
func (p *process) Receive(m protocol.Message) []protocol.Message {
	kind, value, ok := decodePayload(m.Payload)
	if !ok || int(m.Sender) >= p.cfg.N {
		return nil
	}
	t := p.record(kind, value, m)
	senders := t.count[kind-1] // distinct senders of this kind for v
	var out []protocol.Message
	switch kind {
	case msgEcho:
		// Lines 6–8: first ECHO triggers our own echo.
		if !p.echoed {
			p.echoed = true
			out = append(out, protocol.FanOut(p.cfg, t.payload(msgEcho))...)
		}
		// Lines 9–11: 2f+1 echoes for v trigger READY v.
		if senders >= p.cfg.Quorum() && !p.readied {
			p.readied = true
			out = append(out, protocol.FanOut(p.cfg, t.payload(msgReady))...)
		}
	case msgReady:
		// Lines 12–14: f+1 readies amplify to our own READY.
		if senders >= p.cfg.F+1 && !p.readied {
			p.readied = true
			out = append(out, protocol.FanOut(p.cfg, t.payload(msgReady))...)
		}
		// Lines 15–17: 2f+1 readies deliver v. The value leaves the
		// interpreter as an indication, so it is copied.
		if senders >= p.cfg.Quorum() && !p.delivered {
			p.delivered = true
			p.pending = append(p.pending, append([]byte(nil), value...))
		}
	}
	return out
}

// record counts m's sender for (kind, value) and returns value's tally,
// created on first sight. A canonical payload is kept for re-emission.
func (p *process) record(kind byte, value []byte, m protocol.Message) *tally {
	i := slices.IndexFunc(p.tallies, func(t tally) bool { return bytes.Equal(t.value, value) })
	if i < 0 {
		i = len(p.tallies)
		p.tallies = append(p.tallies, tally{value: value})
		p.more = append(p.more, make([]uint64, 2*(p.words-1))...)
	}
	t, k := &p.tallies[i], int(kind-1)
	if t.payloads[k] == nil && len(m.Payload) == payloadLen(value) {
		t.payloads[k] = m.Payload
	}
	if word, bit := p.word(i, k, int(m.Sender)/64), uint64(1)<<(m.Sender%64); *word&bit == 0 {
		*word |= bit
		t.count[k]++
	}
	return t
}

// word returns word w of tally i's kind-k sender bitset.
func (p *process) word(i, k, w int) *uint64 {
	if w == 0 {
		return &p.tallies[i].first[k]
	}
	return &p.more[(2*i+k)*(p.words-1)+w-1]
}

// payload returns the canonical payload carrying (kind, t.value).
func (t *tally) payload(kind byte) []byte {
	if t.payloads[kind-1] == nil {
		t.payloads[kind-1] = encodePayload(kind, t.value)
	}
	return t.payloads[kind-1]
}

// Indications implements protocol.Process.
func (p *process) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

// Done reports whether the instance has delivered; a delivered BRB
// instance never emits again except to help laggards, so retiring it is
// safe for the GC extension (totality for other correct servers relies on
// their own quorums, which exist in the DAG independently of this state).
func (p *process) Done() bool { return p.delivered }

// Clone implements protocol.Process. The byte slices tallies hold are
// immutable and shared; pending values are handed out by Indications, so
// each copy gets its own.
func (p *process) Clone() protocol.Process {
	cp := *p
	cp.tallies = slices.Clone(p.tallies)
	cp.more = slices.Clone(p.more)
	cp.pending = nil
	for _, v := range p.pending {
		cp.pending = append(cp.pending, append([]byte(nil), v...))
	}
	return &cp
}

// StateDigest implements protocol.Process with a canonical serialization:
// per kind, every value with senders, values sorted and senders ascending,
// so equal states hash equally.
func (p *process) StateDigest() []byte {
	w := wire.NewWriter(64)
	w.Bool(p.echoed)
	w.Bool(p.readied)
	w.Bool(p.delivered)
	order := make([]int, len(p.tallies))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(p.tallies[a].value, p.tallies[b].value) })
	for k := range 2 {
		seen := slices.DeleteFunc(slices.Clone(order), func(i int) bool { return p.tallies[i].count[k] == 0 })
		w.Uvarint(uint64(len(seen)))
		for _, i := range seen {
			w.VarBytes(p.tallies[i].value)
			w.Uvarint(uint64(p.tallies[i].count[k]))
			for word := range p.words {
				for set := *p.word(i, k, word); set != 0; set &= set - 1 {
					w.Uint16(uint16(word*64 + bits.TrailingZeros64(set)))
				}
			}
		}
	}
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	sum := crypto.Hash(w.Bytes())
	return sum[:]
}

package brb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// cluster builds one BRB process per server for a single label and wires
// them through an in-memory perfect point-to-point link: messages emitted
// are delivered immediately, breadth first. This tests the protocol in
// isolation, exactly the setting its properties are stated in.
type cluster struct {
	t     *testing.T
	procs []protocol.Process
	queue []protocol.Message
	drops func(m protocol.Message) bool
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{t: t}
	f := (n - 1) / 3
	for i := 0; i < n; i++ {
		cfg := protocol.Config{Self: types.ServerID(i), Label: "ℓ1", N: n, F: f}
		c.procs = append(c.procs, Protocol{}.NewProcess(cfg))
	}
	return c
}

func (c *cluster) request(server int, data []byte) {
	c.enqueue(c.procs[server].Request(data))
	c.drain()
}

func (c *cluster) enqueue(msgs []protocol.Message) {
	for _, m := range msgs {
		if c.drops != nil && c.drops(m) {
			continue
		}
		c.queue = append(c.queue, m)
	}
}

func (c *cluster) drain() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		out := c.procs[m.Receiver].Receive(m)
		c.enqueue(out)
	}
}

func (c *cluster) delivered(server int) [][]byte {
	return c.procs[server].Indications()
}

func TestBroadcastDeliversEverywhere(t *testing.T) {
	for _, n := range []int{1, 4, 7, 10} {
		c := newCluster(t, n)
		c.request(0, []byte("42"))
		for i := 0; i < n; i++ {
			inds := c.delivered(i)
			if len(inds) != 1 || !bytes.Equal(inds[0], []byte("42")) {
				t.Fatalf("n=%d: server %d delivered %q", n, i, inds)
			}
		}
	}
}

func TestNoDuplication(t *testing.T) {
	c := newCluster(t, 4)
	c.request(0, []byte("v"))
	// Drain indications once, then re-inject a duplicate READY storm.
	for i := range c.procs {
		c.delivered(i)
	}
	for s := 0; s < 4; s++ {
		for r := 0; r < 4; r++ {
			c.enqueue([]protocol.Message{{
				Label: "ℓ1", Sender: types.ServerID(s), Receiver: types.ServerID(r),
				Payload: encodePayload(msgReady, []byte("v")),
			}})
		}
	}
	c.drain()
	for i := range c.procs {
		if inds := c.delivered(i); len(inds) != 0 {
			t.Fatalf("server %d delivered twice: %q", i, inds)
		}
	}
}

func TestRepeatedRequestIgnored(t *testing.T) {
	c := newCluster(t, 4)
	c.request(0, []byte("a"))
	c.request(0, []byte("b")) // second broadcast on same instance: ignored
	for i := range c.procs {
		inds := c.delivered(i)
		if len(inds) != 1 || !bytes.Equal(inds[0], []byte("a")) {
			t.Fatalf("server %d delivered %q, want only %q", i, inds, "a")
		}
	}
}

// TestConsistencyUnderEquivocation: a byzantine broadcaster sends ECHO a to
// half the servers and ECHO b to the other half. No correct server may
// deliver a value different from another correct server.
func TestConsistencyUnderEquivocation(t *testing.T) {
	n := 4
	c := newCluster(t, n)
	// Byzantine server 3 crafts conflicting echoes directly.
	for r := 0; r < n; r++ {
		v := []byte("a")
		if r >= 2 {
			v = []byte("b")
		}
		c.enqueue([]protocol.Message{{
			Label: "ℓ1", Sender: 3, Receiver: types.ServerID(r),
			Payload: encodePayload(msgEcho, v),
		}})
	}
	c.drain()
	var deliveredValues [][]byte
	for i := 0; i < 3; i++ { // correct servers only
		for _, v := range c.delivered(i) {
			deliveredValues = append(deliveredValues, v)
		}
	}
	for i := 1; i < len(deliveredValues); i++ {
		if !bytes.Equal(deliveredValues[0], deliveredValues[i]) {
			t.Fatalf("correct servers delivered conflicting values: %q", deliveredValues)
		}
	}
}

// TestAmplificationFromReadies: f+1 READY messages suffice for a server
// that saw no echoes to become ready, and 2f+1 to deliver (totality
// mechanism).
func TestAmplificationFromReadies(t *testing.T) {
	n, f := 4, 1
	c := newCluster(t, n)
	// Server 0 receives READY v from f+1 = 2 distinct servers.
	for s := 1; s <= 2*f+1; s++ {
		c.enqueue([]protocol.Message{{
			Label: "ℓ1", Sender: types.ServerID(s), Receiver: 0,
			Payload: encodePayload(msgReady, []byte("v")),
		}})
	}
	// Do not drain into other servers: isolate server 0.
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		if m.Receiver == 0 {
			c.procs[0].Receive(m)
		}
	}
	inds := c.delivered(0)
	if len(inds) != 1 || !bytes.Equal(inds[0], []byte("v")) {
		t.Fatalf("server 0 delivered %q, want v", inds)
	}
}

// TestEchoQuorumNotReachedWithoutQuorum: 2f echoes must not trigger READY.
func TestEchoQuorumNotReachedWithoutQuorum(t *testing.T) {
	n := 4
	c := newCluster(t, n)
	p := c.procs[0].(*process)
	for s := 0; s < 2; s++ { // 2f = 2 echoes only
		p.Receive(protocol.Message{
			Label: "ℓ1", Sender: types.ServerID(s), Receiver: 0,
			Payload: encodePayload(msgEcho, []byte("v")),
		})
	}
	if p.readied {
		t.Fatal("readied with only 2f echoes")
	}
}

// TestDuplicateSendersDoNotInflateQuorum: the same sender echoing five
// times counts once.
func TestDuplicateSendersDoNotInflateQuorum(t *testing.T) {
	c := newCluster(t, 4)
	p := c.procs[0].(*process)
	for i := 0; i < 5; i++ {
		p.Receive(protocol.Message{
			Label: "ℓ1", Sender: 1, Receiver: 0,
			Payload: encodePayload(msgEcho, []byte("v")),
		})
	}
	if p.readied {
		t.Fatal("duplicate echoes from one sender reached quorum")
	}
}

func TestMalformedPayloadDropped(t *testing.T) {
	c := newCluster(t, 4)
	out := c.procs[0].Receive(protocol.Message{
		Label: "ℓ1", Sender: 1, Receiver: 0, Payload: []byte{0xff, 0x00},
	})
	if out != nil {
		t.Fatalf("malformed payload produced output %v", out)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := newCluster(t, 4)
	orig := c.procs[0]
	orig.Receive(protocol.Message{
		Label: "ℓ1", Sender: 1, Receiver: 0,
		Payload: encodePayload(msgEcho, []byte("v")),
	})
	cp := orig.Clone()
	if !bytes.Equal(cp.StateDigest(), orig.StateDigest()) {
		t.Fatal("clone digest differs from original")
	}
	// Advance the clone; the original must not change.
	before := orig.StateDigest()
	cp.Receive(protocol.Message{
		Label: "ℓ1", Sender: 2, Receiver: 0,
		Payload: encodePayload(msgEcho, []byte("v")),
	})
	if !bytes.Equal(before, orig.StateDigest()) {
		t.Fatal("advancing clone mutated original")
	}
	if bytes.Equal(cp.StateDigest(), orig.StateDigest()) {
		t.Fatal("clone digest unchanged after advancing")
	}
}

// TestDeterminism: two processes fed the identical message sequence end in
// identical states and emit identical messages.
func TestDeterminism(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "ℓ", N: 4, F: 1}
	p1 := Protocol{}.NewProcess(cfg)
	p2 := Protocol{}.NewProcess(cfg)
	seq := []protocol.Message{
		{Label: "ℓ", Sender: 1, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))},
		{Label: "ℓ", Sender: 2, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))},
		{Label: "ℓ", Sender: 3, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))},
		{Label: "ℓ", Sender: 1, Receiver: 0, Payload: encodePayload(msgReady, []byte("v"))},
	}
	for _, m := range seq {
		o1 := p1.Receive(m)
		o2 := p2.Receive(m)
		if len(o1) != len(o2) {
			t.Fatal("output lengths differ")
		}
		for i := range o1 {
			if protocol.Compare(o1[i], o2[i]) != 0 {
				t.Fatal("outputs differ")
			}
		}
	}
	if !bytes.Equal(p1.StateDigest(), p2.StateDigest()) {
		t.Fatal("digests differ after identical input")
	}
}

func TestDoneAfterDeliver(t *testing.T) {
	c := newCluster(t, 4)
	if c.procs[0].Done() {
		t.Fatal("fresh process Done")
	}
	c.request(0, []byte("v"))
	for i := range c.procs {
		if !c.procs[i].Done() {
			t.Fatalf("server %d not Done after delivery", i)
		}
	}
}

// TestF0SingleServer: the degenerate n=1 system must deliver to itself
// (quorum 1).
func TestF0SingleServer(t *testing.T) {
	c := newCluster(t, 1)
	c.request(0, []byte("solo"))
	inds := c.delivered(0)
	if len(inds) != 1 || !bytes.Equal(inds[0], []byte("solo")) {
		t.Fatalf("delivered %q", inds)
	}
}

// refProcess is the original map-based BRB process, kept as the reference
// model the compact implementation is checked against: per-value sender
// sets keyed by copied value strings, deep-copied on Clone.
type refProcess struct {
	cfg       protocol.Config
	echoed    bool
	readied   bool
	delivered bool
	echoes    map[string]map[types.ServerID]struct{}
	readies   map[string]map[types.ServerID]struct{}
	pending   [][]byte
}

func newRefProcess(cfg protocol.Config) *refProcess {
	return &refProcess{
		cfg:     cfg,
		echoes:  make(map[string]map[types.ServerID]struct{}),
		readies: make(map[string]map[types.ServerID]struct{}),
	}
}

func refDecodePayload(data []byte) (kind byte, value []byte, err error) {
	r := wire.NewReader(data)
	kind = r.Byte()
	value = r.VarBytes()
	if err := r.Close(); err != nil {
		return 0, nil, err
	}
	if kind != msgEcho && kind != msgReady {
		return 0, nil, fmt.Errorf("unknown message kind %d", kind)
	}
	return kind, value, nil
}

func refEncodePayload(kind byte, value []byte) []byte {
	w := wire.NewWriter(1 + len(value))
	w.Byte(kind)
	w.VarBytes(value)
	return w.Bytes()
}

func (p *refProcess) Request(data []byte) []protocol.Message {
	if p.echoed {
		return nil
	}
	p.echoed = true
	return protocol.FanOut(p.cfg, refEncodePayload(msgEcho, data))
}

func (p *refProcess) Receive(m protocol.Message) []protocol.Message {
	kind, value, err := refDecodePayload(m.Payload)
	if err != nil {
		return nil
	}
	var out []protocol.Message
	key := string(value)
	switch kind {
	case msgEcho:
		set := p.echoes[key]
		if set == nil {
			set = make(map[types.ServerID]struct{})
			p.echoes[key] = set
		}
		set[m.Sender] = struct{}{}
		if !p.echoed {
			p.echoed = true
			out = append(out, protocol.FanOut(p.cfg, refEncodePayload(msgEcho, value))...)
		}
		if len(set) >= p.cfg.Quorum() && !p.readied {
			p.readied = true
			out = append(out, protocol.FanOut(p.cfg, refEncodePayload(msgReady, value))...)
		}
	case msgReady:
		set := p.readies[key]
		if set == nil {
			set = make(map[types.ServerID]struct{})
			p.readies[key] = set
		}
		set[m.Sender] = struct{}{}
		if len(set) >= p.cfg.F+1 && !p.readied {
			p.readied = true
			out = append(out, protocol.FanOut(p.cfg, refEncodePayload(msgReady, value))...)
		}
		if len(set) >= p.cfg.Quorum() && !p.delivered {
			p.delivered = true
			p.pending = append(p.pending, append([]byte(nil), value...))
		}
	}
	return out
}

func (p *refProcess) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

func (p *refProcess) Done() bool { return p.delivered }

func (p *refProcess) Clone() protocol.Process {
	cp := &refProcess{
		cfg:       p.cfg,
		echoed:    p.echoed,
		readied:   p.readied,
		delivered: p.delivered,
		echoes:    refCloneSets(p.echoes),
		readies:   refCloneSets(p.readies),
	}
	for _, v := range p.pending {
		cp.pending = append(cp.pending, append([]byte(nil), v...))
	}
	return cp
}

func refCloneSets(in map[string]map[types.ServerID]struct{}) map[string]map[types.ServerID]struct{} {
	out := make(map[string]map[types.ServerID]struct{}, len(in))
	for k, set := range in {
		cp := make(map[types.ServerID]struct{}, len(set))
		for id := range set {
			cp[id] = struct{}{}
		}
		out[k] = cp
	}
	return out
}

func (p *refProcess) StateDigest() []byte {
	w := wire.NewWriter(64)
	w.Bool(p.echoed)
	w.Bool(p.readied)
	w.Bool(p.delivered)
	refDigestSets(w, p.echoes)
	refDigestSets(w, p.readies)
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	sum := crypto.Hash(w.Bytes())
	return sum[:]
}

func refDigestSets(w *wire.Writer, sets map[string]map[types.ServerID]struct{}) {
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		ids := make([]int, 0, len(sets[k]))
		for id := range sets[k] {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Uint16(uint16(id))
		}
	}
}

// pair runs the compact process and the reference model side by side.
type pair struct {
	got, want protocol.Process
}

// step applies one scripted input to both processes and asserts they
// emit byte-equal messages in the same order and end in the same state.
func (pr pair) step(t *testing.T, ctx string, request []byte, m *protocol.Message) {
	t.Helper()
	var got, want []protocol.Message
	if m == nil {
		got, want = pr.got.Request(request), pr.want.Request(request)
	} else {
		got, want = pr.got.Receive(*m), pr.want.Receive(*m)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d messages, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Encode(), want[i].Encode()) {
			t.Fatalf("%s: message %d = %+v, reference %+v", ctx, i, got[i], want[i])
		}
	}
	pr.check(t, ctx)
}

// check asserts equal Done and StateDigest, and occasionally drains and
// compares Indications (draining is itself a state change both see).
func (pr pair) check(t *testing.T, ctx string) {
	t.Helper()
	if pr.got.Done() != pr.want.Done() {
		t.Fatalf("%s: Done = %v, reference %v", ctx, pr.got.Done(), pr.want.Done())
	}
	if !bytes.Equal(pr.got.StateDigest(), pr.want.StateDigest()) {
		t.Fatalf("%s: state digest differs from the reference", ctx)
	}
}

func (pr pair) drain(t *testing.T, ctx string) {
	t.Helper()
	got, want := pr.got.Indications(), pr.want.Indications()
	if len(got) != len(want) {
		t.Fatalf("%s: %d indications, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: indication %d = %q, reference %q", ctx, i, got[i], want[i])
		}
	}
	pr.check(t, ctx)
}

// script draws seeded random inputs for one BRB instance of n servers:
// requests and ECHO/READY messages for a few competing values (one of
// them favoured, so quorums form), duplicate senders, and malformed
// payloads of every kind the decoder rejects or must not re-emit as is.
type script struct {
	rng    *rand.Rand
	n      int
	label  types.Label
	values [][]byte
}

func newScript(seed int64, n int) *script {
	rng := rand.New(rand.NewSource(seed))
	s := &script{rng: rng, n: n, label: "ℓ"}
	for v := 0; v < 2+rng.Intn(2); v++ {
		// Lengths straddle the 1- to 2-byte uvarint boundary; the empty
		// value is a competitor too.
		val := make([]byte, []int{0, 1, 127, 128, 1024}[rng.Intn(5)])
		rng.Read(val)
		s.values = append(s.values, val)
	}
	return s
}

func (s *script) value() []byte {
	if s.rng.Intn(3) > 0 {
		return s.values[0]
	}
	return s.values[s.rng.Intn(len(s.values))]
}

// next returns one input: a request (m == nil) or a message.
func (s *script) next() (request []byte, m *protocol.Message) {
	if s.rng.Intn(40) == 0 {
		return s.value(), nil
	}
	kind := msgEcho
	if s.rng.Intn(2) == 0 {
		kind = msgReady
	}
	payload := encodePayload(kind, s.value())
	switch s.rng.Intn(12) {
	case 0: // truncated
		payload = payload[:s.rng.Intn(len(payload))]
	case 1: // trailing byte
		payload = append(payload, 0)
	case 2: // unknown kind
		payload[0] = byte(3 + s.rng.Intn(250))
	case 3: // non-canonical (padded) length prefix: decodable, not re-emittable
		v := s.value()
		payload = append([]byte{kind}, byte(len(v)&0x7f|0x80), byte(len(v)>>7|0x80), 0)
		payload = append(payload, v...)
	case 4: // garbage
		payload = make([]byte, s.rng.Intn(6))
		s.rng.Read(payload)
	}
	return nil, &protocol.Message{
		Label:    s.label,
		Sender:   types.ServerID(s.rng.Intn(s.n)),
		Receiver: 0,
		Payload:  payload,
	}
}

// TestMatchesReferenceModel drives the compact process and the map-based
// reference with identical seeded scripts — n up to 100, so sender IDs
// past 64 use multi-word bitsets — and clones both mid-script, advancing
// original and clone independently afterwards. Every step must emit the
// same bytes, and report the same indications, Done and digest; advancing
// a clone must never change its original.
func TestMatchesReferenceModel(t *testing.T) {
	for _, n := range []int{1, 4, 7, 100} {
		delivered := 0
		for seed := int64(0); seed < 10; seed++ {
			f := (n - 1) / 3
			cfg := protocol.Config{Self: types.ServerID(seed % int64(n)), Label: "ℓ", N: n, F: f}
			orig := pair{got: Protocol{}.NewProcess(cfg), want: newRefProcess(cfg)}
			s := newScript(seed*1000+int64(n), n)
			steps := 60 + 12*n
			cloneAt := s.rng.Intn(steps)
			var clone pair
			for i := 0; i < steps; i++ {
				ctx := fmt.Sprintf("n=%d seed=%d step %d", n, seed, i)
				if i == cloneAt {
					clone = pair{got: orig.got.Clone(), want: orig.want.Clone()}
					clone.check(t, ctx+" (clone)")
				}
				rq, m := s.next()
				orig.step(t, ctx, rq, m)
				if s.rng.Intn(10) == 0 {
					orig.drain(t, ctx)
				}
				if clone.got == nil {
					continue
				}
				before := orig.got.StateDigest()
				rq, m = s.next()
				clone.step(t, ctx+" (clone)", rq, m)
				if s.rng.Intn(10) == 0 {
					clone.drain(t, ctx+" (clone)")
				}
				if !bytes.Equal(before, orig.got.StateDigest()) {
					t.Fatalf("%s: advancing the clone changed the original", ctx)
				}
			}
			if orig.got.Done() {
				delivered++
			}
			orig.drain(t, fmt.Sprintf("n=%d seed=%d end", n, seed))
		}
		// The scripts must reach the delivery quorum, or the quorum
		// paths above went unchecked.
		if delivered < 5 {
			t.Fatalf("n=%d: only %d of 10 scripts delivered", n, delivered)
		}
	}
}

// TestSenderOutsideSystemDropped: a message from a sender ID ≥ N cannot be
// materialized by any interpreter; the process ignores it rather than
// counting it toward a quorum.
func TestSenderOutsideSystemDropped(t *testing.T) {
	p := Protocol{}.NewProcess(protocol.Config{Self: 0, Label: "ℓ", N: 4, F: 1})
	before := p.StateDigest()
	out := p.Receive(protocol.Message{Label: "ℓ", Sender: 4, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))})
	if out != nil || !bytes.Equal(before, p.StateDigest()) {
		t.Fatalf("sender outside the system changed state or emitted %v", out)
	}
}

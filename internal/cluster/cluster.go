// Package cluster runs complete shim(P) clusters on the deterministic
// network simulator: n core.Servers, each with its own DAG, gossip, and
// interpreter, exchanging blocks over simnet with configurable latency,
// jitter, and loss.
//
// It is the shared harness behind the integration tests of Theorem 5.1,
// every benchmark in EXPERIMENTS.md, the experiments CLI, and the
// examples. Byzantine servers are modeled by leaving their slot without a
// correct server and driving hand-crafted (but validly signed) blocks
// through the test's own logic via Seal and Send.
//
// Every correct slot runs its server through a node.Replica — the same
// deterministic core the production runtime drives — so recovery
// wiring, the live follower and the checkpoint trigger are the node's
// own code, here paced by the simulator's virtual clock and fed from its
// event loop.
package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/gateway"
	"blockdag/internal/gossip"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/peerscore"
	"blockdag/internal/protocol"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Indication is one indication observed at a correct server.
type Indication struct {
	Server types.ServerID
	Label  types.Label
	Value  []byte
}

// Options configures a cluster.
type Options struct {
	// N is the number of servers (required, ≥ 1).
	N int
	// Protocol is the embedded deterministic BFT protocol P (required).
	Protocol protocol.Protocol

	// Byzantine lists server indices with no correct server attached:
	// their slots exist in the roster, and tests drive them manually.
	Byzantine []int

	// Fixture supplies the cluster's identities as a roster fixture —
	// the file-format code path a production deployment loads from disk.
	// Nil defaults to roster.Dev(N): the deterministic development
	// identities, still routed through the roster codec, so simulation
	// and deployment can never diverge. Must have N members when set.
	Fixture *roster.Fixture
	// DisableAuth skips registering each server's transport
	// authenticator on the simulated network. By default every slot
	// (byzantine ones included — tests drive their traffic with valid
	// identities) authenticates, so cluster runs exercise the same
	// Authenticator seam tcpnet enforces in production.
	DisableAuth bool

	// SyncEvery/SyncBurst enable the catch-up server's per-peer token
	// bucket on every durable slot (see syncsvc.Server.Every/Burst);
	// zero leaves rate limiting off. The per-peer in-flight cap is
	// always on at the syncsvc default.
	SyncEvery time.Duration
	SyncBurst int

	// FollowEvery enables the live follower (node.Config.FollowEvery) on
	// every correct slot: each server polls a rotating peer (every other
	// slot, in ID order) once FollowEvery of virtual time has passed since
	// its last poll (node.Replica.PollIfDue, checked every round) and,
	// when the peer's vector advertises blocks the local DAG lacks, pulls
	// exactly the missing suffix through the validated delta stream —
	// converging a laggard without waiting for per-block FWD round trips.
	// Polls, streams, and absorptions all ride the simulator's event
	// loop, so runs stay deterministic. With FollowEvery set, every
	// correct slot also serves the sync channel (from its store when
	// durable, else straight from its DAG), so non-durable clusters can
	// follow too. 0 disables.
	FollowEvery time.Duration

	// Accountability equips every correct slot with the evidence and
	// quarantine machinery: an evidence pool and peer scorer wired into
	// gossip (equivocation proofs are built, gossiped, and relayed; blocks
	// built by banned servers are refused unless a chain needs them), the
	// simulated network (links to and from banned peers are torn down),
	// the sync service (throttle refusals feed the scorer), and — on
	// durable clusters — the store (proofs persist in the evidence
	// sidecar, and recovery re-seeds pool and bans from disk). Off by
	// default: tests that deliberately drive equivocations to observe
	// paper semantics see zero behavior change.
	Accountability bool

	// Seed fixes the simulation (default 1).
	Seed int64
	// Latency and Jitter configure the link delay model (defaults
	// 10ms ± 5ms).
	Latency, Jitter time.Duration
	// Drop is the unicast loss probability (default 0).
	Drop float64
	// Interval is the dissemination period (default 50ms).
	Interval time.Duration

	// MaxBatch caps requests per block (0 = gossip default).
	MaxBatch int
	// MempoolCapacity, if > 0, gives every correct server a real
	// ingestion pool (core.Config.Mempool) with that capacity instead of
	// the plain rqsts FIFO: submissions deduplicate, validate, and hit
	// backpressure exactly as in production. Recovered servers get a
	// fresh pool (a mempool is volatile state; queued requests do not
	// survive a crash).
	MempoolCapacity int
	// GatewayPerSlot binds a client gateway (package gateway) to every
	// correct slot on an ephemeral loopback port, so deterministic tests
	// drive the real HTTP front door against simulated consensus. Requires
	// MempoolCapacity > 0: the pool is the only concurrency-safe admission
	// path into an event-loop-driven server, and the gateway's HTTP
	// goroutines must not touch server state directly. Indications reach
	// the gateways through per-slot brokers (Brokers), published from the
	// simulator's event loop. Crashing a slot closes its gateway; recovery
	// opens a fresh one on a new port.
	GatewayPerSlot bool

	// LoadPerRound, if > 0, submits that many synthetic client requests
	// at every correct server before each dissemination round — a
	// deterministic stand-in for client traffic, labeled
	// "load/s<slot>/<seq>" with the sequence number as payload so every
	// request is unique and runs reproduce exactly. Works with or
	// without a mempool.
	LoadPerRound int
	// VerifyWorkers sets the batched signature-verification parallelism
	// of every server (core.Config.VerifyWorkers): 0 = GOMAXPROCS,
	// 1 = serial. Verdicts are worker-count independent, so simulation
	// determinism is unaffected.
	VerifyWorkers int
	// SigCounters, if non-nil, tallies every signature operation of
	// every server (experiment E10).
	SigCounters *crypto.Counters
	// CompressReferences enables the Section 7 implicit-inclusion
	// extension on every server (experiment E16 ablation).
	CompressReferences bool
	// RetireInstances enables the interpreter GC extension.
	RetireInstances bool

	// StoreDir, if non-empty, gives every correct server a durable block
	// store under StoreDir/s<i>: each inserted block is journaled before
	// interpretation (through store.Store.PersistSink, so own blocks are
	// synced before dissemination exactly as in production), and servers
	// with pre-existing store contents restore from them on construction.
	// Stores otherwise run with SyncNever (the simulation models power
	// cuts by truncation, not by fsync) and the simulated clock.
	StoreDir string
	// StoreSegmentSize overrides the WAL rotation threshold
	// (0 = store default). Tests use small segments to exercise
	// rotation and compaction.
	StoreSegmentSize int64
	// CheckpointEverySegments, with StoreDir set, applies the automatic
	// checkpoint policy (node.Config.CheckpointEverySegments) at every
	// round's tick: a server whose WAL has at least this many segments
	// snapshots and compacts its store, so catch-up servers have a fresh
	// snapshot to stream. 0 disables.
	CheckpointEverySegments int
}

// Cluster is a running simulation.
type Cluster struct {
	Net *simnet.Network
	// Fixture is the roster fixture the cluster's identities came from.
	Fixture *roster.Fixture
	Roster  *crypto.Roster
	Signers []*crypto.Signer
	// Servers holds the correct servers; byzantine slots are nil.
	Servers []*core.Server
	// Metrics holds each correct server's counters (nil for byzantine
	// slots).
	Metrics []*metrics.Metrics
	// Stores holds each correct server's durable block store when
	// Options.StoreDir was set (nil otherwise, and for byzantine and
	// crashed slots).
	Stores []*store.Store
	// Pools holds each correct server's ingestion pool when
	// Options.MempoolCapacity was set (nil otherwise, and for byzantine
	// and crashed slots until recovery).
	Pools []*mempool.Pool
	// EvidencePools and Scorers hold each correct server's accountability
	// state when Options.Accountability was set (nil otherwise, and for
	// byzantine and crashed slots until recovery).
	EvidencePools []*evidence.Pool
	Scorers       []*peerscore.Scorer
	// Gateways and Brokers hold each correct slot's client gateway and the
	// indication broker feeding it when Options.GatewayPerSlot was set
	// (nil otherwise, and for byzantine and crashed slots until recovery).
	Gateways []*gateway.Gateway
	Brokers  []*node.IndicationBroker

	opts     Options
	interval time.Duration
	inds     [][]Indication
	// reps holds each correct slot's replica core (nil for byzantine and
	// crashed slots).
	reps []*node.Replica
	// loadSeq numbers each slot's synthetic requests across rounds and
	// recoveries, keeping LoadPerRound traffic unique and reproducible.
	loadSeq []uint64
}

// New builds a cluster per the options.
func New(opts Options) (*Cluster, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", opts.N)
	}
	if opts.Protocol == nil {
		return nil, fmt.Errorf("cluster: need a protocol")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Latency == 0 {
		opts.Latency = 10 * time.Millisecond
	}
	if opts.Jitter == 0 {
		opts.Jitter = 5 * time.Millisecond
	}
	if opts.Interval == 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.GatewayPerSlot && opts.MempoolCapacity <= 0 {
		return nil, fmt.Errorf("cluster: GatewayPerSlot needs MempoolCapacity > 0 (the pool is the gateway's concurrency-safe admission path)")
	}

	fixture := opts.Fixture
	if fixture == nil {
		var err error
		if fixture, err = roster.Dev(opts.N); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	if fixture.File.N() != opts.N {
		return nil, fmt.Errorf("cluster: fixture has %d members, options want %d", fixture.File.N(), opts.N)
	}
	cryptoRoster, signers, err := fixture.Signers(opts.SigCounters)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	net := simnet.New(
		simnet.WithSeed(opts.Seed),
		simnet.WithLatency(opts.Latency, opts.Jitter),
		simnet.WithDrop(opts.Drop),
	)
	if !opts.DisableAuth {
		auths, err := fixture.Auths()
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		for i, a := range auths {
			net.RegisterAuth(types.ServerID(i), a)
		}
	}
	byz := make(map[int]bool, len(opts.Byzantine))
	for _, i := range opts.Byzantine {
		byz[i] = true
	}

	c := &Cluster{
		Net:     net,
		Fixture: fixture,
		Roster:  cryptoRoster,
		Signers: signers,
		Servers: make([]*core.Server, opts.N),
		Metrics: make([]*metrics.Metrics, opts.N),
		Stores:  make([]*store.Store, opts.N),
		Pools:   make([]*mempool.Pool, opts.N),

		EvidencePools: make([]*evidence.Pool, opts.N),
		Scorers:       make([]*peerscore.Scorer, opts.N),
		Gateways:      make([]*gateway.Gateway, opts.N),
		Brokers:       make([]*node.IndicationBroker, opts.N),

		opts:     opts,
		interval: opts.Interval,
		inds:     make([][]Indication, opts.N),
		reps:     make([]*node.Replica, opts.N),
		loadSeq:  make([]uint64, opts.N),
	}
	for i := 0; i < opts.N; i++ {
		if byz[i] {
			continue
		}
		st, err := c.openStore(i)
		if err != nil {
			return nil, err
		}
		var d *dag.DAG
		if st != nil {
			d = st.TakeDAG()
		}
		if err := c.startServer(i, opts.Protocol, d, opts.CompressReferences, st); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newBroker builds (and records) one slot's indication broker when
// Options.GatewayPerSlot asks for one; nil otherwise (a nil broker's
// Publish is a no-op, so indication closures call it unconditionally).
func (c *Cluster) newBroker(slot int) *node.IndicationBroker {
	if !c.opts.GatewayPerSlot {
		return nil
	}
	c.Brokers[slot] = node.NewIndicationBroker(0)
	return c.Brokers[slot]
}

// openGateway binds one slot's client gateway on an ephemeral loopback
// port. Everything the gateway's HTTP goroutines touch is captured here as
// concurrency-safe values (pool, metrics, scorer, broker) — never the
// cluster's slices, which the test goroutine mutates on crash/recovery.
func (c *Cluster) openGateway(slot int) error {
	if !c.opts.GatewayPerSlot {
		return nil
	}
	pool := c.Pools[slot]
	m := c.Metrics[slot]
	sc := c.Scorers[slot]
	reg := gateway.NewRegistry()
	reg.Register(gateway.CollectMetrics(m))
	reg.Register(gateway.CollectMempool(pool))
	reg.Register(gateway.CollectPeerScore(sc))
	gw, err := gateway.Listen("127.0.0.1:0", gateway.Config{
		Submit:      pool.Submit,
		Indications: c.Brokers[slot],
		Registry:    reg,
		Status: func() gateway.Status {
			stats := pool.Stats()
			snap := m.Snapshot()
			return gateway.Status{
				Server:   slot,
				Healthy:  true,
				Mempool:  &stats,
				Counters: &snap,
			}
		},
	})
	if err != nil {
		return fmt.Errorf("cluster: gateway for server %d: %w", slot, err)
	}
	c.Gateways[slot] = gw
	return nil
}

// GatewayAddr returns one slot's gateway address (host:port), "" when the
// slot has none (no GatewayPerSlot, byzantine, or crashed).
func (c *Cluster) GatewayAddr(slot int) string {
	if c.Gateways[slot] == nil {
		return ""
	}
	return c.Gateways[slot].Addr()
}

// Close tears down the client plane: every live gateway drains and every
// broker wakes its subscribers with the terminal signal. The simulation
// itself holds no other external resources (stores are caller-closed).
func (c *Cluster) Close() {
	for i := range c.Gateways {
		c.closeGateway(i)
	}
}

// closeGateway shuts one slot's gateway and broker down (idempotent).
func (c *Cluster) closeGateway(slot int) {
	if gw := c.Gateways[slot]; gw != nil {
		_ = gw.Close()
		c.Gateways[slot] = nil
	}
	if br := c.Brokers[slot]; br != nil {
		br.Close()
		c.Brokers[slot] = nil
	}
}

// register attaches one slot's consumers to the network: the server on
// the gossip channel and — when the slot is durable, or the cluster runs
// the live-follower loop — a catch-up server on the sync channel, so any
// peer can bulk-sync or follow from this slot. Durable slots stream
// their store; follower-only slots stream straight from the DAG (both
// safe on the event loop). Watermark queries are answered from the
// replica's tracker, exactly as a production node answers them. The
// catch-up server runs under the hardening policy (in-flight cap,
// optional token bucket on the simulated clock).
func (c *Cluster) register(slot int, rep *node.Replica, srv *core.Server, st *store.Store) {
	id := types.ServerID(slot)
	c.Net.Register(id, transport.ChanGossip, srv)
	if st == nil && c.opts.FollowEvery <= 0 {
		return
	}
	sync := &syncsvc.Server{
		Store:      st,
		Every:      c.opts.SyncEvery,
		Burst:      c.opts.SyncBurst,
		Clock:      c.Net.Now,
		Scores:     c.Scorers[slot],
		Watermarks: rep.Watermarks,
	}
	if st == nil {
		sync.Source = func() ([]*block.Block, error) {
			return srv.DAG().Blocks(), nil
		}
	}
	c.Net.RegisterHandler(id, transport.ChanSync, sync)
}

// openStore opens the durable block store for one slot if Options.StoreDir
// is configured (nil store otherwise).
func (c *Cluster) openStore(slot int) (*store.Store, error) {
	if c.opts.StoreDir == "" {
		return nil, nil
	}
	st, err := store.Open(filepath.Join(c.opts.StoreDir, fmt.Sprintf("s%d", slot)), store.Options{
		Roster:      c.Roster,
		SegmentSize: c.opts.StoreSegmentSize,
		Sync:        store.SyncNever,
		Clock:       c.Net.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: store for server %d: %w", slot, err)
	}
	return st, nil
}

// wireAccountability equips one slot's core.Config with a fresh evidence
// pool and peer scorer when Options.Accountability is set: gossip gains
// the proof/ban machinery, the simulated network tears down links the
// scorer bans, and — durable slots only — accepted proofs persist in the
// store's evidence sidecar. Scores are volatile (a restart forgets
// quarantine standing, as a real process would); bans are not, because
// recovery re-seeds them from the sidecar via core.Server.SeedEvidence.
func (c *Cluster) wireAccountability(slot int, cfg *core.Config, st *store.Store) {
	if !c.opts.Accountability {
		return
	}
	pool := evidence.NewPool()
	sc := peerscore.New(peerscore.Options{Clock: c.Net.Now})
	c.EvidencePools[slot] = pool
	c.Scorers[slot] = sc
	c.Net.RegisterScorer(types.ServerID(slot), sc)
	cfg.Evidence = pool
	cfg.Scores = sc
	if st != nil {
		cfg.OnEvidence = st.AppendEvidence
	}
}

// newPool builds (and records) one slot's ingestion pool when
// Options.MempoolCapacity asks for one; nil otherwise.
func (c *Cluster) newPool(slot int) *mempool.Pool {
	if c.opts.MempoolCapacity <= 0 {
		return nil
	}
	c.Pools[slot] = mempool.New(mempool.Options{Capacity: c.opts.MempoolCapacity})
	return c.Pools[slot]
}

// Request submits a user request at the given correct server.
func (c *Cluster) Request(server int, label types.Label, data []byte) {
	c.Servers[server].Request(label, data)
}

// Submit is the backpressure-aware form of Request: on a cluster with
// mempools it returns the admission verdict (mempool.ErrFull,
// mempool.ErrDuplicate, a validation error); without them it always
// accepts.
func (c *Cluster) Submit(server int, label types.Label, data []byte) error {
	return c.Servers[server].Submit(label, data)
}

// MempoolStats returns one slot's pool counters; the zero value when the
// cluster runs without mempools (or the slot is down).
func (c *Cluster) MempoolStats(slot int) mempool.Stats {
	if c.Pools[slot] == nil {
		return mempool.Stats{}
	}
	return c.Pools[slot].Stats()
}

// injectLoad submits one round's synthetic client requests at a slot:
// Options.LoadPerRound unique, deterministically labeled requests, the
// simulator's stand-in for client traffic.
func (c *Cluster) injectLoad(slot int) {
	srv := c.Servers[slot]
	if srv == nil || c.opts.LoadPerRound <= 0 {
		return
	}
	for k := 0; k < c.opts.LoadPerRound; k++ {
		seq := c.loadSeq[slot]
		c.loadSeq[slot]++
		label := types.Label(fmt.Sprintf("load/s%d/%d", slot, seq))
		// Admission can fail under backpressure; synthetic load is
		// best-effort by design, and the pool counts the overflow.
		_ = srv.Submit(label, []byte(fmt.Sprintf("r%d", seq)))
	}
}

// RunRounds schedules `rounds` dissemination rounds — every correct server
// ticks its replica (FWD retries, checkpoint policy), disseminates, and
// polls a peer if its follow period is due, once per round, staggered to
// break symmetry — then runs the network to quiescence.
func (c *Cluster) RunRounds(rounds int) error {
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * c.interval
		for i, srv := range c.Servers {
			if srv == nil {
				continue
			}
			srv, rep := srv, c.reps[i]
			slot := i
			stagger := time.Duration(i) * time.Millisecond
			c.Net.After(at+stagger, func() {
				c.injectLoad(slot)
				rep.Tick()
				if err := srv.Disseminate(); err != nil {
					// Recorded by Health below; dissemination
					// of a correct server cannot fail.
					_ = err
				}
				rep.PollIfDue()
			})
		}
	}
	c.Net.Run()
	return c.Health()
}

// RunUntil runs dissemination rounds until cond holds or maxRounds pass,
// reporting whether cond was met.
func (c *Cluster) RunUntil(maxRounds int, cond func() bool) (bool, error) {
	for r := 0; r < maxRounds; r++ {
		if cond() {
			return true, nil
		}
		if err := c.RunRounds(1); err != nil {
			return false, err
		}
	}
	return cond(), nil
}

// FollowReport returns one slot's live-follower counters: its current
// replica's (zero for byzantine and crashed slots — a recovered slot
// starts a fresh report, as a restarted node does).
func (c *Cluster) FollowReport(slot int) node.FollowReport {
	if rep := c.reps[slot]; rep != nil {
		return rep.FollowReport()
	}
	return node.FollowReport{}
}

// FollowOnce schedules one immediate follow poll at the given slot,
// regardless of how recently the periodic policy polled (FollowEvery
// must be enabled; an outstanding poll still wins). Tests and benchmarks
// use it to converge a healed follower at a quiet moment — with nothing
// else scheduled, running the network to quiescence isolates exactly the
// follow path's traffic.
func (c *Cluster) FollowOnce(slot int) {
	c.Net.After(0, func() {
		if rep := c.reps[slot]; rep != nil {
			rep.Poll()
		}
	})
}

// Health surfaces the first internal error of any correct server (or of
// its replica's policy: persist, checkpoint, absorb).
func (c *Cluster) Health() error {
	for i, rep := range c.reps {
		if rep == nil {
			continue
		}
		if err := rep.Err(); err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
	}
	return nil
}

// Indications returns the indications observed at one server so far.
func (c *Cluster) Indications(server int) []Indication {
	return append([]Indication(nil), c.inds[server]...)
}

// CorrectServers returns the indices of the non-byzantine servers.
func (c *Cluster) CorrectServers() []int {
	var out []int
	for i, srv := range c.Servers {
		if srv != nil {
			out = append(out, i)
		}
	}
	return out
}

// Converged reports whether all correct servers hold identical DAGs — the
// joint block DAG of Lemma 3.7 at quiescence.
func (c *Cluster) Converged() bool {
	correct := c.CorrectServers()
	if len(correct) == 0 {
		return true
	}
	base := c.Servers[correct[0]].DAG()
	for _, i := range correct[1:] {
		d := c.Servers[i].DAG()
		if d.Len() != base.Len() || !base.Leq(d) || !d.Leq(base) {
			return false
		}
	}
	return true
}

// Crash simulates a full stop of the given server: it stops disseminating
// (its slot becomes nil) and it is deregistered from the network, so
// future traffic to it is dropped and any catch-up stream it was serving
// aborts with transport.ErrStreamLost at the client. A store attached to
// the slot is abandoned (store.Store.Abandon) without sealing or fsyncing
// the live segment — the power-cut model — releasing its file handle so
// crash/recover loops do not leak descriptors; reopen the directory via
// RecoverServerFromStore (or store.Open for offline work). Recover the
// slot with RecoverServer, RecoverServerFromStore, or — to exercise the
// bulk sync path — RecoverServerViaSync.
func (c *Cluster) Crash(slot int) {
	c.Servers[slot] = nil
	// Retiring the replica also drops every transport callback still in
	// flight for it (see startServer's post hook).
	c.reps[slot] = nil
	if st := c.Stores[slot]; st != nil {
		st.Abandon()
	}
	c.Stores[slot] = nil
	// The mempool is volatile state: queued requests die with the
	// process, exactly as in production. Recovery builds a fresh pool.
	c.Pools[slot] = nil
	// So are the evidence pool and scorer: recovery re-seeds bans from
	// the store's evidence sidecar, which is the whole point of it.
	c.EvidencePools[slot] = nil
	c.Scorers[slot] = nil
	// The gateway dies with the process: in-flight clients get the clean
	// terminal signal (closed broker), new connections are refused until
	// recovery opens a fresh gateway on a fresh port.
	c.closeGateway(slot)
	c.Net.RegisterScorer(types.ServerID(slot), nil)
	c.Net.Deregister(types.ServerID(slot))
}

// BannedEverywhere reports whether every correct server's scorer has the
// given server in the terminal banned state. False on clusters without
// Options.Accountability.
func (c *Cluster) BannedEverywhere(id types.ServerID) bool {
	any := false
	for i, srv := range c.Servers {
		if srv == nil || types.ServerID(i) == id {
			continue
		}
		if c.Scorers[i] == nil || !c.Scorers[i].Banned(id) {
			return false
		}
		any = true
	}
	return any
}

// RecoverServer restarts a crashed slot from persisted blocks: the blocks
// are admitted into a fresh DAG (dag.Admit validates each once; an
// invalid block fails the recovery with its sentinel), a fresh
// core.Server is built, Restore replays that DAG (re-interpreting it),
// the gossip chain state resumes the old chain, and the endpoint is
// re-registered. Replayed indications are appended to the
// slot's indication record, so callers observe at-least-once delivery
// across the crash.
func (c *Cluster) RecoverServer(slot int, proto protocol.Protocol, stored []*block.Block) error {
	return c.RecoverServerWith(slot, proto, stored, false)
}

// RecoverServerWith is RecoverServer with the compression extension
// toggled explicitly; the recovered server's mode must match the rest of
// the deployment.
//
// On a cluster with Options.StoreDir both variants refuse: rebuilding the
// slot without its store would journal nothing from then on, so a second
// crash would restore a stale prefix and re-use published sequence
// numbers — the self-equivocation the store exists to prevent. Use
// RecoverServerFromStore there.
func (c *Cluster) RecoverServerWith(slot int, proto protocol.Protocol, stored []*block.Block, compress bool) error {
	if c.opts.StoreDir != "" {
		return fmt.Errorf("cluster: recover server %d: cluster has durable stores, use RecoverServerFromStore", slot)
	}
	d := dag.New(c.Roster)
	if _, err := d.Admit(stored); err != nil {
		return fmt.Errorf("cluster: recover server %d: %w", slot, err)
	}
	return c.startServer(slot, proto, d, compress, nil)
}

// RecoverServerFromStore restarts a crashed slot from its on-disk store:
// the store directory under Options.StoreDir is reopened (replaying the
// WAL, truncating any torn tail, revalidating every block), the recovered
// blocks are restored into a fresh server, and journaling resumes on the
// same store — the full production crash-recovery path, in simulation.
func (c *Cluster) RecoverServerFromStore(slot int, proto protocol.Protocol) error {
	if c.opts.StoreDir == "" {
		return fmt.Errorf("cluster: recover server %d from store: cluster has no StoreDir", slot)
	}
	st, err := c.openStore(slot)
	if err != nil {
		return err
	}
	return c.startServer(slot, proto, st.TakeDAG(), c.opts.CompressReferences, st)
}

// RecoverServerViaSync restarts a crashed slot through bulk catch-up: the
// slot's store is reopened (possibly empty — the disk-loss model), a
// catch-up stream is pulled from the given peer's store over
// transport.ChanSync, every streamed block is validated against the
// roster and the DAG rules, the validated blocks are journaled, and the
// server restores store plus stream in one replay. The network is driven
// until the stream terminates, so the call is deterministic.
//
// The serving peer is untrusted: a stream carrying a tampered or
// ill-ordered block aborts with its validation error, the slot stays
// down, and nothing invalid touches the slot's store or server — the
// caller retries against another peer or falls back to
// RecoverServerFromStore (per-block FWD then fills any gap).
func (c *Cluster) RecoverServerViaSync(slot int, proto protocol.Protocol, from int) error {
	if c.opts.StoreDir == "" {
		return fmt.Errorf("cluster: recover server %d via sync: cluster has no StoreDir", slot)
	}
	st, err := c.openStore(slot)
	if err != nil {
		return err
	}
	d := st.TakeDAG()
	pull := syncsvc.NewPull(d, 0)
	tr := c.Net.Transport(types.ServerID(slot))
	cancel := tr.Call(types.ServerID(from), transport.ChanSync, pull.Request(), pull)
	if !c.Net.RunUntil(pull.Done) {
		cancel()
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync: network quiesced before the stream ended", slot)
	}
	fetched, perr := pull.Result()
	if perr != nil {
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync from %d: %w", slot, from, perr)
	}
	if err := st.AppendBatch(fetched); err != nil {
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync: journal: %w", slot, err)
	}
	if err := st.Sync(); err != nil {
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync: %w", slot, err)
	}
	return c.startServer(slot, proto, d, c.opts.CompressReferences, st)
}

// startServer builds one slot's server from a validated DAG (nil: fresh)
// and runs it through a node.Replica, which restores d, seeds the
// watermark tracker and installs st's persistence sink — the same
// post-recovery wiring a production node performs. Replica callbacks
// (follow answers, settled pulls) run inline on the event loop and are
// dropped once the slot crashed or was rebuilt: a dead server absorbs
// nothing.
func (c *Cluster) startServer(slot int, proto protocol.Protocol, d *dag.DAG, compress bool, st *store.Store) error {
	id := types.ServerID(slot)
	m := &metrics.Metrics{}
	broker := c.newBroker(slot)
	cfg := core.Config{
		Roster:             c.Roster,
		Signer:             c.Signers[slot],
		Protocol:           proto,
		Transport:          c.Net.Transport(id),
		Clock:              c.Net.Now,
		Metrics:            m,
		MaxBatch:           c.opts.MaxBatch,
		VerifyWorkers:      c.opts.VerifyWorkers,
		Mempool:            c.newPool(slot),
		RetireInstances:    c.opts.RetireInstances,
		CompressReferences: compress,
		OnIndication: func(label types.Label, value []byte) {
			c.inds[slot] = append(c.inds[slot], Indication{
				Server: id, Label: label, Value: value,
			})
			broker.Publish(label, value)
		},
	}
	c.wireAccountability(slot, &cfg, st)
	srv, err := core.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("cluster: server %d: %w", slot, err)
	}
	peers := make([]types.ServerID, 0, c.opts.N-1)
	for i := 0; i < c.opts.N; i++ {
		if i != slot {
			peers = append(peers, types.ServerID(i))
		}
	}
	var rep *node.Replica
	post := func(fn func()) {
		if c.reps[slot] == rep {
			fn()
		}
	}
	rep, err = node.NewReplica(node.Config{
		Server:                  srv,
		Store:                   st,
		CheckpointEverySegments: c.opts.CheckpointEverySegments,
		FollowEvery:             c.opts.FollowEvery,
	}, d, c.Net.Transport(id), peers, post)
	if err != nil {
		return fmt.Errorf("cluster: server %d: %w", slot, err)
	}
	if st != nil {
		// Replay the evidence sidecar: bans survive the crash even when
		// the proof's blocks never made it into the replayable DAG.
		srv.SeedEvidence(st.Evidence())
	}
	c.register(slot, rep, srv, st)
	c.Servers[slot] = srv
	c.Metrics[slot] = m
	c.Stores[slot] = st
	c.reps[slot] = rep
	return c.openGateway(slot)
}

// Seal builds and signs a block on behalf of the given server — the
// building brick for byzantine behaviours driven by tests.
func (c *Cluster) Seal(server int, seq uint64, preds []block.Ref, reqs ...block.Request) (*block.Block, error) {
	b := block.New(types.ServerID(server), seq, preds, reqs)
	if err := b.Seal(c.Signers[server]); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return b, nil
}

// Send delivers a block from one server to specific receivers only —
// selective dissemination, the byzantine behaviour gossip tolerates.
func (c *Cluster) Send(from int, b *block.Block, to ...int) {
	payload := gossip.EncodeBlockMsg(b)
	tr := c.Net.Transport(types.ServerID(from))
	for _, dst := range to {
		tr.Send(types.ServerID(dst), transport.ChanGossip, payload)
	}
}

// Command tcp runs the production deployment path end to end: TCP
// transports with the mutual challenge–response handshake, a concurrent
// node runtime per server, and shim(BRB) — no simulator anywhere.
//
// Two modes:
//
// All-in-one (default): four servers in one process on loopback, wired
// from the deterministic dev fixture — which itself round-trips through
// the roster-file codec, so this is the same identity code path a real
// deployment uses. This is the smoke test for the full stack.
//
// Multi-process (-roster/-key): ONE server per process, its identity
// loaded from a dagroster-generated roster file plus its private key
// file. Each process listens on its roster address, authenticates every
// peer connection against the roster, submits one broadcast, and exits
// once it has delivered every member's broadcast. Four such processes —
// started with no shared seed anywhere — form the cluster `make
// roster-demo` exercises:
//
//	dagroster init -n 4 -dir deploy -addr-base 127.0.0.1:7101
//	tcp -roster deploy/roster.txt -key deploy/s0.key &
//	tcp -roster deploy/roster.txt -key deploy/s1.key &
//	tcp -roster deploy/roster.txt -key deploy/s2.key &
//	tcp -roster deploy/roster.txt -key deploy/s3.key
//
// With -store-dir each server additionally journals every inserted block
// to a durable store (fsync policy -fsync), serves bulk catch-up streams
// from it on the sync channel (hardened: per-peer in-flight cap and
// token bucket; watermark polls answered from the runtime's live
// tracker), and restores from it on startup — after first asking
// its peers for any blocks it is missing (-catchup). Run the command
// twice with the same directory and the second run resumes every
// server's chain; delete one server's subdirectory in between and it
// bulk-syncs the backlog from a peer instead of re-fetching it block by
// block. -checkpoint-segments keeps each store compacted so those
// streams start from a snapshot.
//
// With -follow the node additionally runs the live-follower loop while
// it serves traffic: every -follow interval it asks a rotating peer for
// its watermark vector and, when the peer is ahead, pulls exactly the
// missing suffix through the validated delta stream — so a server that
// falls behind mid-run reconverges without restarting and without
// per-block FWD round trips. See README.md for a walkthrough.
//
// With -state the server additionally maintains a Merkle commitment
// (internal/state) over every delivered broadcast, seals and signs it on
// a cadence, journals it through the store's checkpoint path, and serves
// it on the sync channel's snapshot tier. -prune-keep N then prunes
// journaled history N seqs below each chain's tip after every seal,
// bounding the store to O(state + recent DAG); and -snapshot-join makes
// a server whose store directory is empty fetch a roster-certified state
// snapshot from its peers — every chunk verified against the certified
// root before anything lands — instead of replaying history that may no
// longer exist anywhere. That is the third catch-up tier `make
// snapshot-smoke` exercises: wipe one server's store, restart it, and it
// rejoins from a snapshot plus a short validated delta.
//
// With -gateway the server additionally opens the client-facing front
// door (package gateway) on the given address: POST /v1/submit, long-poll
// GET /v1/await/{label}, streaming GET /v1/indications, GET /v1/status,
// and a Prometheus GET /metrics folding every subsystem's counters —
// core metrics, transport, catch-up admission, mempool, signatures, and
// the gateway's own. -gateway-token puts the client plane behind a bearer
// token (/metrics stays open for scrapers); -linger keeps the process
// serving past its own workload so clients can drive it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/gateway"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		rosterPath = flag.String("roster", "", "roster file: run ONE server per process from identity files (requires -key)")
		keyPath    = flag.String("key", "", "this server's key file (with -roster)")
		listenAddr = flag.String("listen", "", "with -roster: bind address override (default: this server's roster address)")
		timeout    = flag.Duration("timeout", 10*time.Second, "how long to wait for all broadcasts to deliver")
		storeDir   = flag.String("store-dir", "", "journal blocks under this directory and restore on startup")
		fsyncMode  = flag.String("fsync", "interval", "store fsync policy: always | interval | never")
		catchup    = flag.Bool("catchup", true, "with -store-dir: bulk-sync missing blocks from peers at startup")
		follow     = flag.Duration("follow", 0, "with -store-dir and -catchup: poll a rotating peer's watermarks this often and pull any missing suffix live (0 disables)")
		ckptSegs   = flag.Int("checkpoint-segments", 4, "with -store-dir: checkpoint the store every N WAL segments (0 disables)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "with -store-dir: checkpoint the store when it grows N bytes (0 disables)")
		mpoolCap   = flag.Int("mempool", 0, "ingestion mempool capacity: requests deduplicate, validate, and hit backpressure before block inclusion (0 = plain FIFO)")
		stateOn    = flag.Bool("state", false, "with -store-dir: maintain a Merkle state commitment over delivered broadcasts; seal, sign, journal, and serve it on the snapshot tier")
		pruneKeep  = flag.Uint64("prune-keep", 0, "with -state: prune journaled history this many seqs below each chain tip after every seal (0 keeps full history)")
		snapJoin   = flag.Bool("snapshot-join", false, "with -roster and -state: an empty store dir fetches a roster-certified snapshot from peers before opening (the third catch-up tier)")
		gwAddr     = flag.String("gateway", "", "serve the client gateway (HTTP API + /metrics) on this address; all-in-one mode binds it to s0")
		gwToken    = flag.String("gateway-token", "", "with -gateway: require this bearer token on the client API (/metrics stays open)")
		linger     = flag.Duration("linger", 0, "keep serving this long after the workload completes (lets gateway clients drive the cluster)")
	)
	flag.Parse()

	syncPolicy, err := store.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	if *follow > 0 && (*storeDir == "" || !*catchup) {
		return fmt.Errorf("-follow needs -store-dir and -catchup (the follower reuses the catch-up peers)")
	}
	if *gwToken != "" && *gwAddr == "" {
		return fmt.Errorf("-gateway-token needs -gateway")
	}
	if *stateOn && *storeDir == "" {
		return fmt.Errorf("-state needs -store-dir (the sealed commitment journals through the store)")
	}
	if (*pruneKeep > 0 || *snapJoin) && !*stateOn {
		return fmt.Errorf("-prune-keep and -snapshot-join need -state")
	}
	if *snapJoin && *rosterPath == "" {
		return fmt.Errorf("-snapshot-join needs -roster (a wiped node joins a running cluster)")
	}
	opts := runOpts{
		storeDir:  *storeDir,
		fsync:     syncPolicy,
		catchup:   *catchup,
		follow:    *follow,
		ckptSegs:  *ckptSegs,
		ckptBytes: *ckptBytes,
		mpoolCap:  *mpoolCap,
		state:     *stateOn,
		pruneKeep: *pruneKeep,
		snapJoin:  *snapJoin,
		timeout:   *timeout,
		gateway:   *gwAddr,
		gwToken:   *gwToken,
		linger:    *linger,
	}

	if (*rosterPath == "") != (*keyPath == "") {
		return fmt.Errorf("-roster and -key go together")
	}
	if *rosterPath != "" {
		return runOne(*rosterPath, *keyPath, *listenAddr, opts)
	}
	return runAllInOne(opts)
}

// runOpts carries the flags shared by both modes.
type runOpts struct {
	storeDir  string
	fsync     store.SyncPolicy
	catchup   bool
	follow    time.Duration
	ckptSegs  int
	ckptBytes int64
	mpoolCap  int
	state     bool
	pruneKeep uint64
	snapJoin  bool
	timeout   time.Duration
	gateway   string
	gwToken   string
	linger    time.Duration
}

// server is one running identity: transport, runtime, and delivery log.
type server struct {
	identity *roster.Identity
	tr       *tcpnet.Transport
	nd       *node.Node
	st       *store.Store
	gossip   *transport.LateBound
	// The observability plane: the counters the gateway's registry folds.
	mets    *metrics.Metrics
	sigs    *crypto.Counters
	syncSrv *syncsvc.Server
	gw      *gateway.Gateway
	// ndRef late-binds the runtime for the sync service's watermark
	// source: the listener (and its handler goroutines) exists before
	// the node does.
	ndRef atomic.Pointer[node.Node]
	// machine is the Merkle-committed view of the delivered broadcasts
	// (with -state): one (label, value) entry per delivery, frontier =
	// number of distinct labels. Loop-goroutine only.
	machine *state.Machine
	// snapAnchor is the peer that served our snapshot join, tried first
	// for the delta catch-up: it provably holds everything above the
	// horizon it handed us.
	snapAnchor types.ServerID
	snapJoined bool

	mu        sync.Mutex
	delivered map[types.Label]string
}

// start opens the store (optional), binds the listener with the roster
// authenticator, and builds the server and runtime. listen overrides the
// bind address ("" = this identity's roster address). sigs is the
// signature-operation tally already installed on the identity's roster
// (it must be wired before the signer is derived, so the caller owns it).
func start(identity *roster.Identity, listen string, opts runOpts, sigs *crypto.Counters) (*server, error) {
	s := &server{identity: identity, sigs: sigs, delivered: make(map[types.Label]string)}
	if listen == "" {
		listen = identity.File.Addr(identity.ID())
	}
	if listen == "" {
		return nil, fmt.Errorf("s%d: roster has no address and no -listen given", identity.ID())
	}

	s.gossip = &transport.LateBound{}
	cfg := tcpnet.Config{
		Self:       identity.ID(),
		ListenAddr: listen,
		Auth:       identity.Auth(),
		Endpoints: map[transport.Channel]transport.Endpoint{
			transport.ChanGossip: s.gossip,
		},
	}
	if opts.storeDir != "" {
		st, err := store.Open(opts.storeDir, store.Options{
			Roster: identity.Roster,
			Sync:   opts.fsync,
		})
		if err != nil {
			return nil, err
		}
		s.st = st
		if rep := st.Report(); rep.Blocks > 0 || rep.TornBytes > 0 {
			fmt.Printf("s%d store: recovered %d blocks (torn tail: %d bytes)\n",
				identity.ID(), rep.Blocks, rep.TornBytes)
		}
		s.syncSrv = &syncsvc.Server{
			Store: st, Every: time.Second, Burst: 8,
			Watermarks: func() []syncsvc.Watermark {
				if nd := s.ndRef.Load(); nd != nil {
					return nd.Watermarks()
				}
				return nil
			},
		}
		if opts.state {
			s.machine = state.NewMachine(0)
			// The snapshot tier serves whatever the runtime last sealed
			// (nil until the node is up and has sealed or restored one).
			s.syncSrv.Snapshot = func() *syncsvc.ServedSnapshot {
				if nd := s.ndRef.Load(); nd != nil {
					return nd.ServedSnapshot()
				}
				return nil
			}
		}
		cfg.Handlers = map[transport.Channel]transport.Handler{
			// The catch-up server runs hardened: per-peer in-flight cap
			// (syncsvc default) plus a token bucket, so a byzantine
			// peer cannot force repeated full-store scans. Watermark
			// polls are answered from the runtime's live tracker once
			// it is up (nil until then: the server falls back to a
			// store scan, still behind the same admission policy).
			transport.ChanSync: s.syncSrv,
		}
	}
	tr, err := tcpnet.Listen(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.tr = tr
	fmt.Printf("s%d listening on %s (authenticated)\n", identity.ID(), tr.Addr())
	return s, nil
}

// connectPeers attaches every other roster member. addrOf overrides the
// dial address per id ("" = roster address) — the all-in-one mode binds
// ephemeral ports.
func (s *server) connectPeers(addrOf func(types.ServerID) string) error {
	for _, id := range s.identity.Roster.IDs() {
		if id == s.identity.ID() {
			continue
		}
		addr := addrOf(id)
		if addr == "" {
			return fmt.Errorf("s%d: no dial address for peer %d", s.identity.ID(), id)
		}
		if err := s.tr.Connect(id, addr); err != nil {
			return err
		}
	}
	return nil
}

// boot builds the core server and node runtime and starts the loop, then
// opens the client gateway when -gateway asks for one.
func (s *server) boot(opts runOpts) error {
	s.mets = &metrics.Metrics{}
	ccfg := core.Config{
		Roster:    s.identity.Roster,
		Signer:    s.identity.Signer,
		Protocol:  brb.Protocol{},
		Transport: s.tr,
		Clock:     node.Clock(),
		Metrics:   s.mets,
		OnIndication: func(label types.Label, value []byte) {
			s.mu.Lock()
			s.delivered[label] = string(value)
			s.mu.Unlock()
			if s.machine != nil {
				// Mirror the delivery into the committed state. BRB has
				// no slots, so the convergence point is the number of
				// distinct labels: every correct server delivers the
				// same (label, value) set, so at quiescence all seal
				// the same (slot, root) — certifiable by joiners.
				s.machine.Tree().Put([]byte(label), value)
				s.machine.SealAt(uint64(s.machine.Tree().Len()))
			}
		},
	}
	if opts.mpoolCap > 0 {
		// A real ingestion pool in front of block production: client
		// submissions deduplicate, validate, and see backpressure via
		// node.Node.Submit; received blocks batch-verify on ingest.
		ccfg.Mempool = mempool.New(mempool.Options{Capacity: opts.mpoolCap})
	}
	srv, err := core.NewServer(ccfg)
	if err != nil {
		return err
	}
	cfg := node.Config{
		Server:           srv,
		Identity:         s.identity,
		DisseminateEvery: 20 * time.Millisecond,
	}
	if s.st != nil {
		cfg.Store = s.st
		cfg.CheckpointEverySegments = opts.ckptSegs
		cfg.CheckpointEveryBytes = opts.ckptBytes
		if opts.state {
			cfg.State = &node.StateSyncConfig{
				Machine:       s.machine,
				Signer:        s.identity.Signer,
				SealEvery:     500 * time.Millisecond,
				ChunkBytes:    32 << 10,
				PruneKeepSeqs: opts.pruneKeep,
			}
		}
		if opts.catchup {
			var peers []types.ServerID
			if s.snapJoined {
				// The snapshot's anchor first: it provably holds the
				// blocks above the horizon we just installed.
				peers = append(peers, s.snapAnchor)
			}
			for _, id := range s.identity.Roster.IDs() {
				if id != s.identity.ID() && !(s.snapJoined && id == s.snapAnchor) {
					peers = append(peers, id)
				}
			}
			cfg.CatchUp = &syncsvc.FetchConfig{
				Transport: s.tr,
				Peers:     peers,
				Timeout:   5 * time.Second,
			}
			// The live follower rides the catch-up wiring: same
			// peers, same validated stream, but polled continuously
			// instead of once at startup.
			cfg.FollowEvery = opts.follow
		}
	}
	nd, err := node.New(cfg)
	if err != nil {
		return err
	}
	if rep := nd.CatchUpReport(); rep.Ran && (rep.Blocks > 0 || rep.Err != nil) {
		fmt.Printf("s%d catch-up: %d blocks in bulk (err: %v)\n", s.identity.ID(), rep.Blocks, rep.Err)
	}
	if s.machine != nil && s.machine.Tree().Len() > 0 {
		// Broadcasts settled in the restored (or snapshot-installed)
		// state count as delivered: their history may be pruned away, so
		// no indication will ever replay them.
		s.mu.Lock()
		s.machine.Tree().Walk(func(e state.Entry) {
			if _, ok := s.delivered[types.Label(e.Key)]; !ok {
				s.delivered[types.Label(e.Key)] = string(e.Value)
			}
		})
		s.mu.Unlock()
	}
	s.nd = nd
	s.ndRef.Store(nd)
	if err := nd.Start(); err != nil {
		return err
	}
	// Bind only once the loop runs (see transport.LateBound.Bind).
	s.gossip.Bind(nd)
	return s.openGateway(opts, ccfg.Mempool)
}

// openGateway serves the client front door with the full observability
// fold: core metrics, transport, catch-up admission, mempool, signature
// counters, and the gateway's own — every subsystem this process runs.
func (s *server) openGateway(opts runOpts, pool *mempool.Pool) error {
	if opts.gateway == "" {
		return nil
	}
	reg := gateway.NewRegistry()
	reg.Register(gateway.CollectMetrics(s.mets))
	reg.Register(gateway.CollectTCPNet(s.tr))
	reg.Register(gateway.CollectSync(s.syncSrv))
	reg.Register(gateway.CollectMempool(pool))
	reg.Register(gateway.CollectCrypto(s.sigs))
	gcfg := gateway.Config{Node: s.nd, Registry: reg}
	if opts.gwToken != "" {
		gcfg.Tokens = []string{opts.gwToken}
	}
	gw, err := gateway.Listen(opts.gateway, gcfg)
	if err != nil {
		return fmt.Errorf("s%d gateway: %w", s.identity.ID(), err)
	}
	s.gw = gw
	auth := "open"
	if opts.gwToken != "" {
		auth = "bearer token"
	}
	fmt.Printf("s%d gateway on http://%s (%s; /metrics open)\n", s.identity.ID(), gw.Addr(), auth)
	return nil
}

// deliveredCount returns how many distinct labels have been delivered.
func (s *server) deliveredCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivered)
}

func (s *server) close() {
	if s.nd != nil {
		// Stop drains the gateway first (registered OnStop hook): awaits
		// and streams get their terminal response before the loop dies.
		s.nd.Stop()
	}
	if s.gw != nil {
		_ = s.gw.Close()
	}
	if s.tr != nil {
		_ = s.tr.Close()
	}
	if s.st != nil {
		_ = s.st.Close()
	}
}

// runOne is the multi-process mode: one server, identity from files.
func runOne(rosterPath, keyPath, listen string, opts runOpts) error {
	file, err := roster.Load(rosterPath)
	if err != nil {
		return err
	}
	key, err := roster.LoadKey(keyPath)
	if err != nil {
		return err
	}
	// The signature tally is installed before the signer is derived so
	// both sign and verify operations land in the gateway's crypto_*
	// scrape families.
	sigs := &crypto.Counters{}
	identity, err := file.Identity(key, sigs)
	if err != nil {
		return err
	}
	var joined *syncsvc.FetchedSnapshot
	if opts.snapJoin {
		if joined, err = snapshotJoin(identity, opts); err != nil {
			return err
		}
		if joined != nil {
			fmt.Printf("s%d snapshot join: installed certified state at slot %d root %x from s%d (%d chunks, %d base stand-ins)\n",
				identity.ID(), joined.Commit.Slot, joined.Commit.Root[:8], joined.Anchor,
				len(joined.Chunks), len(joined.Base))
		}
	}
	s, err := start(identity, listen, opts, sigs)
	if err != nil {
		return err
	}
	defer s.close()
	if joined != nil {
		s.snapJoined, s.snapAnchor = true, joined.Anchor
	}
	if err := s.connectPeers(file.Addr); err != nil {
		return err
	}
	if err := s.boot(opts); err != nil {
		return err
	}

	// The workload: every member broadcasts one greeting; we are done
	// when all n greetings delivered here. A rejoining node whose own
	// greeting already settled in the restored state does not rebroadcast
	// it — the label's BRB instance completed cluster-wide long ago.
	label := types.Label(fmt.Sprintf("greet/s%d", identity.ID()))
	s.mu.Lock()
	_, already := s.delivered[label]
	s.mu.Unlock()
	if already {
		fmt.Printf("s%d: own broadcast already settled in the restored state\n", identity.ID())
	} else if err := s.nd.Submit(label, []byte(fmt.Sprintf("hello from s%d", identity.ID()))); err != nil {
		return fmt.Errorf("s%d submit: %w", identity.ID(), err)
	}

	deadline := time.Now().Add(opts.timeout)
	for s.deliveredCount() < file.N() {
		if time.Now().After(deadline) {
			return fmt.Errorf("s%d delivered %d/%d broadcasts within %v (peer rejections: %d, auth failures: %d)",
				identity.ID(), s.deliveredCount(), file.N(), opts.timeout, s.tr.Rejections(), s.tr.AuthFailures())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Keep serving for a grace period past our own finish line: a
	// straggler (say, a late joiner whose broadcast is still mid-flow)
	// may need our final blocks — or a follow pull from our store — and
	// exiting the instant we delivered would strand it. -linger extends
	// the window so gateway clients can keep driving the cluster.
	grace := time.Second
	if opts.linger > grace {
		grace = opts.linger
	}
	time.Sleep(grace)
	if err := s.nd.Err(); err != nil {
		return fmt.Errorf("node unhealthy: %w", err)
	}
	s.printFollow(opts)
	s.printMempool()
	s.printState()
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Printf("s%d delivered all %d broadcasts:\n", identity.ID(), file.N())
	for label, value := range s.delivered {
		fmt.Printf("  %s=%s\n", label, value)
	}
	return nil
}

// snapshotJoin runs the wiped-node path of the third catch-up tier
// before the store ever opens: over a throwaway authenticated client
// transport, fetch a roster-certified state snapshot from the peers —
// every chunk verified against the certified root before anything lands
// — and install it as the new store's first segment. A non-empty store
// dir is left alone (nil return): normal recovery covers it.
func snapshotJoin(identity *roster.Identity, opts runOpts) (*syncsvc.FetchedSnapshot, error) {
	tr, err := tcpnet.Listen(tcpnet.Config{
		Self:       identity.ID(),
		ListenAddr: "127.0.0.1:0",
		Auth:       identity.Auth(),
		Endpoints: map[transport.Channel]transport.Endpoint{
			// Gossip pushed at the throwaway connection is dropped; the
			// real listener binds after the install and catches up.
			transport.ChanGossip: &transport.LateBound{Buffer: -1},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("s%d snapshot join: %w", identity.ID(), err)
	}
	defer func() { _ = tr.Close() }()
	var peers []types.ServerID
	for _, id := range identity.Roster.IDs() {
		if id == identity.ID() {
			continue
		}
		if err := tr.Connect(id, identity.File.Addr(id)); err != nil {
			return nil, fmt.Errorf("s%d snapshot join: dial s%d: %w", identity.ID(), id, err)
		}
		peers = append(peers, id)
	}
	fetched, err := node.SnapshotJoin(opts.storeDir, syncsvc.SnapshotFetchConfig{
		Transport: tr,
		Roster:    identity.Roster,
		Peers:     peers,
		Timeout:   opts.timeout,
	})
	if err != nil {
		return nil, err
	}
	return fetched, nil
}

// printState reports the sealed state commitment and prune position
// (with -state).
func (s *server) printState() {
	if s.machine == nil || s.nd == nil {
		return
	}
	served := s.nd.ServedSnapshot()
	if served == nil {
		fmt.Printf("s%d state: nothing sealed yet\n", s.identity.ID())
		return
	}
	c := served.Signed.Commit
	var maxSeq uint64
	for _, h := range served.Horizon {
		if h > maxSeq {
			maxSeq = h
		}
	}
	fmt.Printf("s%d state: sealed slot %d root %x (%d chunks; pruned below seq %d on %d chains)\n",
		s.identity.ID(), c.Slot, c.Root[:8], len(served.Chunks), maxSeq, len(served.Base))
}

// printMempool reports the ingestion pool's counters (with -mempool).
func (s *server) printMempool() {
	if s.nd == nil {
		return
	}
	pool := s.nd.Server().Mempool()
	if pool == nil {
		return
	}
	ms := pool.Stats()
	fmt.Printf("s%d mempool: %d submitted, %d accepted, %d drained into blocks (%d dup, %d invalid, %d overflow)\n",
		s.identity.ID(), ms.Submitted, ms.Accepted, ms.Drained, ms.Duplicates, ms.Invalid, ms.Overflow)
}

// printFollow reports the live-follower loop's activity (with -follow).
func (s *server) printFollow(opts runOpts) {
	if opts.follow <= 0 || s.nd == nil {
		return
	}
	rep := s.nd.FollowReport()
	fmt.Printf("s%d follow: %d polls, %d deltas, %d blocks pulled, %d throttled (sync calls: %d out / %d served)\n",
		s.identity.ID(), rep.Polls, rep.Deltas, rep.Blocks, rep.Throttled,
		s.tr.CallsOpened(), s.tr.CallsServed())
}

// runAllInOne is the smoke-test mode: the whole cluster in one process,
// identities from the dev fixture (which round-trips the roster codec),
// every connection still mutually authenticated.
func runAllInOne(opts runOpts) error {
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		return err
	}

	// Phase 1: bind all listeners on ephemeral ports.
	servers := make([]*server, n)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.close()
			}
		}
	}()
	perServerOpts := make([]runOpts, n)
	for i := 0; i < n; i++ {
		sigs := &crypto.Counters{}
		identity, err := fx.File.Identity(fx.Keys[i], sigs)
		if err != nil {
			return err
		}
		o := opts
		if opts.storeDir != "" {
			o.storeDir = filepath.Join(opts.storeDir, fmt.Sprintf("s%d", i))
		}
		if i != 0 {
			// -gateway binds the front door to s0 only; one process,
			// one address, one client plane.
			o.gateway, o.gwToken = "", ""
		}
		perServerOpts[i] = o
		if servers[i], err = start(identity, "127.0.0.1:0", o, sigs); err != nil {
			return err
		}
	}
	// Phase 2: full mesh over the ephemeral addresses.
	addrOf := func(id types.ServerID) string { return servers[id].tr.Addr() }
	for _, s := range servers {
		if err := s.connectPeers(addrOf); err != nil {
			return err
		}
	}
	// Phase 3: runtimes.
	for i, s := range servers {
		if err := s.boot(perServerOpts[i]); err != nil {
			return err
		}
	}

	// The workload: two broadcasts submitted at different servers,
	// through the backpressure-aware entry point (a no-op distinction
	// without -mempool; the admission verdict with it).
	if err := servers[0].nd.Submit("greeting", []byte("hello over TCP")); err != nil {
		return fmt.Errorf("s0 submit: %w", err)
	}
	if err := servers[2].nd.Submit("number", []byte("42")); err != nil {
		return fmt.Errorf("s2 submit: %w", err)
	}

	deadline := time.Now().Add(opts.timeout)
	for {
		done := true
		for _, s := range servers {
			if s.deliveredCount() < 2 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("broadcasts not delivered within %v", opts.timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if opts.linger > 0 {
		fmt.Printf("\nworkload done; lingering %v for gateway clients\n", opts.linger)
		time.Sleep(opts.linger)
	}

	fmt.Println("\ndeliveries over real TCP:")
	for i, s := range servers {
		s.mu.Lock()
		fmt.Printf("  s%d: %v\n", i, s.delivered)
		s.mu.Unlock()
	}
	for i, s := range servers {
		if err := s.nd.Err(); err != nil {
			return fmt.Errorf("node unhealthy: %w", err)
		}
		s.printFollow(perServerOpts[i])
		s.printMempool()
		s.printState()
	}
	fmt.Println("\nall four servers delivered both broadcasts; every connection was mutually authenticated")
	return nil
}

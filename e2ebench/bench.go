package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"blockdag/internal/types"
)

// rounds is how many fresh clusters a run measures in turn, each for an
// equal share of the window. A cluster's memory grows with every label it
// has interpreted, so a run measures more work by adding rounds instead
// of lengthening one. Each round times one set-up, and the end-to-end
// metrics come from the quiet half of the rounds (see quietRounds).
const rounds = 6

// runResult pools everything a run's rounds measured; the metric tables
// read it.
type runResult struct {
	attempted, failed int
	checked           int // indications compared against submitted values
	delivered         int // labels completed inside the windows
	windowS           float64
	gcCPU, totalCPU   float64 // Go runtime CPU inside the windows, s
	perRound          []roundStats

	ctr        counters // window activity, summed over incarnations
	walSegs    int
	rejoins    []rejoinSample
	ls         *loadStats
	mpWaitMs   []float64
	b2iMs      []float64
	follow     followTotals
	heapPeakMB float64
	goroutines int
	rejections int64
	authFail   int64
	peakDepth  int

	tc                      *tracer
	sends, sendBytes        int64
	protoNs                 int64
	verifyUs, fsyncMs       float64
	overhead, cpuMsPerLabel float64
}

type followTotals struct{ polls, blocks, errors int }

// roundStats is one round's end-to-end figures.
type roundStats struct {
	setupS        float64
	latencies     []float64 // commit latency of each window label, ms
	deliveredPerS float64
	cpuMsPerLabel float64
	rssMB         float64 // peak resident memory seen in the window
	stealFrac     float64 // share of the machine's CPU time stolen by the hypervisor
}

// roundsJSON renders each round's figures for the fingerprint line.
func (r *runResult) roundsJSON() []map[string]float64 {
	out := make([]map[string]float64, len(r.perRound))
	for i, s := range r.perRound {
		out[i] = map[string]float64{
			"setup_s": s.setupS, "p50_ms": quantile(s.latencies, 0.50), "p99_ms": quantile(s.latencies, 0.99),
			"delivered_per_s":  s.deliveredPerS,
			"cpu_ms_per_label": s.cpuMsPerLabel, "rss_mb": s.rssMB, "steal_frac": s.stealFrac,
		}
	}
	return out
}

// quietRounds returns the half of the run's rounds (rounded up) in which
// the hypervisor stole the least CPU time from this machine. On a shared
// host a neighbour's burst slows every layer at once; the end-to-end
// figures come from these rounds so that they measure the program, and
// each round's steal is printed with the result.
func (r *runResult) quietRounds() []roundStats {
	quiet := slices.Clone(r.perRound)
	slices.SortStableFunc(quiet, func(a, b roundStats) int { return cmp.Compare(a.stealFrac, b.stealFrac) })
	return quiet[:(len(quiet)+1)/2]
}

// overRounds is the median of one figure over the quiet rounds.
func (r *runResult) overRounds(f func(roundStats) float64) float64 {
	var xs []float64
	for _, s := range r.quietRounds() {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// pooled joins one list of samples over the quiet rounds, so that a
// percentile has every quiet round's samples beneath it.
func (r *runResult) pooled(f func(roundStats) []float64) []float64 {
	var xs []float64
	for _, s := range r.quietRounds() {
		xs = append(xs, f(s)...)
	}
	return xs
}

// rejoinSample is one crash-rejoin of the victim.
type rejoinSample struct {
	restartTiming
	rejoin        time.Duration // restart call → victim indicated every label the others had
	startToCaught time.Duration // Start → the same point
}

// bench is one round: a workload driven against one cluster.
type bench struct {
	wl  workload
	c   *cluster
	tr  *tracker
	tc  *tracer
	res *runResult
	// windowOpen marks incarnations born inside the measured window
	// (main goroutine only).
	windowOpen bool
}

// runOnce runs the workload's rounds, each on a freshly set-up cluster,
// and pools their measurements. Any correctness violation fails the run.
func runOnce(wl workload, seed uint64, window time.Duration, dir string, traced bool) (*runResult, error) {
	res := &runResult{ls: &loadStats{}}
	if traced {
		res.tc = newTracer()
	}
	for k := 0; k < rounds; k++ {
		if err := runRound(wl, seed, k, window/rounds, filepath.Join(dir, fmt.Sprintf("round%d", k)), res); err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		// Hand the finished round's heap back before the next one.
		debug.FreeOSMemory()
	}
	res.cpuMsPerLabel = res.overRounds(func(s roundStats) float64 { return s.cpuMsPerLabel })
	return res, nil
}

func runRound(wl workload, seed uint64, round int, window time.Duration, dir string, res *runResult) error {
	tr := newTracker()
	if res.tc != nil {
		res.tc.newRound()
	}
	start := time.Now()
	c, err := newCluster(dir, tr, res.tc, wl.gateway)
	if err != nil {
		return err
	}
	defer func() {
		c.stop()
		_ = os.RemoveAll(dir)
	}()
	b := &bench{wl: wl, c: c, tr: tr, tc: res.tc, res: res}
	if err := b.setUp(); err != nil {
		return err
	}
	setup := time.Since(start).Seconds()
	if err := b.drive(newGen(seed, round, wl), window); err != nil {
		return err
	}
	if err := tr.err(); err != nil {
		return err
	}
	res.perRound[len(res.perRound)-1].setupS = setup
	return nil
}

// setUp starts the cluster from empty stores and waits for one warm-up
// label to be indicated on every replica.
func (b *bench) setUp() error {
	if err := b.c.start(); err != nil {
		return err
	}
	label := types.Label("warmup")
	value := []byte("warm-up label")
	at := now()
	b.tr.add(label, value, at)
	err := b.c.reps[0].nd.Submit(label, value)
	b.tr.submitted(label, at, err)
	if err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	deadline := time.Now().Add(rejoinLimit)
	for !b.tr.isDone(label) {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up label not indicated everywhere within %v", rejoinLimit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// drive runs one round's load and schedule, then settles, checks and
// pools the round into b.res.
func (b *bench) drive(g *gen, window time.Duration) error {
	wl, tr, c, res := b.wl, b.tr, b.c, b.res
	var submit submitter
	var gw *gatewayClient
	switch {
	case wl.gateway:
		gw = b.newGatewayClient()
		submit = gw.submit
	case len(wl.cycles) > 0:
		// The victim gets no submits; a label is done once the three
		// replicas that stay up indicated it.
		submit = b.directSubmit([]int{0, 1, 2})
		tr.setNeed(allReplicas&^(1<<victim), 0)
	default:
		submit = b.directSubmit([]int{0, 1, 2, 3})
		tr.setNeed(allReplicas, wl.window)
	}

	loadStart := now()
	winStart := loadStart + int64(warmup)
	winEnd := winStart + int64(window)
	var genWG sync.WaitGroup
	genWG.Add(1)
	go func() {
		defer genWG.Done()
		if wl.rate > 0 {
			b.openLoop(g, wl.rate, submit, !wl.gateway, loadStart, winStart, winEnd)
		} else {
			b.closedLoop(g, wl.window, submit, winEnd)
		}
	}()

	sleepUntil(winStart)
	smp := startSampler()
	jif0, steal0 := hostSteal()
	cpu0 := cpuTime()
	gc0, total0 := gcCPU()
	b.windowOpen = true
	for _, r := range c.reps {
		r.winBase, r.inWindow = r.snap(), true
	}
	var sends0, bytes0, proto0 int64
	if b.tc != nil {
		sends0, bytes0, proto0 = b.tc.sends.Load(), b.tc.sendBytes.Load(), b.tc.protoNs.Load()
	}

	var err error
	for _, frac := range wl.cycles {
		sleepUntil(winStart + int64(frac*float64(window)))
		addr := c.reps[victim].addr
		c.crash(victim)
		time.Sleep(outage)
		if err = b.rejoin(addr); err != nil {
			break
		}
	}

	sleepUntil(winEnd)
	cpu1 := cpuTime()
	jif1, steal1 := hostSteal()
	gc1, total1 := gcCPU()
	smp.stop()
	b.windowOpen = false
	for _, r := range c.reps {
		if r != nil && r.inWindow && !r.ended {
			r.winEnd, r.ended = r.snap(), true
		}
	}
	res.gcCPU += gc1 - gc0
	res.totalCPU += total1 - total0
	res.windowS += window.Seconds()
	round := roundStats{rssMB: smp.rssMB, stealFrac: ratio(float64(steal1-steal0), float64(jif1-jif0))}
	res.heapPeakMB = max(res.heapPeakMB, smp.heapMB)
	res.goroutines = max(res.goroutines, smp.goroutines)
	if b.tc != nil {
		res.sends += b.tc.sends.Load() - sends0
		res.sendBytes += b.tc.sendBytes.Load() - bytes0
		res.protoNs += b.tc.protoNs.Load() - proto0
	}

	genWG.Wait()
	if gw != nil {
		gw.close()
	}
	if err != nil {
		return err
	}
	// Let the labels still in flight complete (or run into the limit).
	deadline := time.Now().Add(latencyLimit)
	for tr.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(wl.cycles) == 0 {
		// One crash-rejoin after the window: how long this workload's
		// history takes to recover. The crashed incarnation's heap is
		// returned first, so the process does not hold two copies of
		// the victim's state at once.
		addr := c.reps[victim].addr
		c.crash(victim)
		debug.FreeOSMemory()
		if err := b.rejoin(addr); err != nil {
			return err
		}
	}
	b.settle()
	res.walSegs = max(res.walSegs, c.stop())
	w := b.pool(winStart, winEnd)
	round.latencies = w.latencies
	round.deliveredPerS = float64(w.completedIn) / window.Seconds()
	round.cpuMsPerLabel = ratio(float64((cpu1-cpu0).Nanoseconds())/1e6, float64(w.completedIn))
	res.perRound = append(res.perRound, round)
	return nil
}

// rejoin restarts the crashed victim on addr and waits until it has
// indicated every label the other replicas had indicated at the restart
// call.
func (b *bench) rejoin(addr string) error {
	pending := b.tr.doneEverywhere(allReplicas &^ (1 << victim))
	t0 := time.Now()
	rt, err := b.c.restart(victim, addr)
	if err != nil {
		return fmt.Errorf("restart s%d: %w", victim, err)
	}
	started := time.Now()
	r := b.c.reps[victim]
	r.rejoined = true
	if b.windowOpen {
		r.winBase, r.inWindow = counters{disk: r.diskAtStart}, true
	}
	for {
		pending = b.tr.missing(victim, pending)
		if len(pending) == 0 {
			break
		}
		if time.Since(t0) > rejoinLimit {
			return fmt.Errorf("s%d did not rejoin within %v: %d labels missing", victim, rejoinLimit, len(pending))
		}
		time.Sleep(time.Millisecond)
	}
	done := time.Now()
	b.res.rejoins = append(b.res.rejoins, rejoinSample{restartTiming: rt, rejoin: done.Sub(t0), startToCaught: done.Sub(started)})
	return nil
}

// settle waits until every replica has indicated every accepted label,
// then checks that all four indicated the same set: agreement at
// quiescence and, for a restarted victim, that its set equals the rest.
func (b *bench) settle() {
	deadline := time.Now().Add(settleLimit)
	for !b.tr.settled() {
		if time.Now().After(deadline) {
			b.tr.violate("replicas did not indicate every accepted label within %v of the load stopping", settleLimit)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.tr.checkSetsEqual(allReplicas, "at quiescence")
}

// pool checks every incarnation's final state, adds the round's numbers
// to the run's and returns the round's window summary.
func (b *bench) pool(winStart, winEnd int64) windowStats {
	res, tr := b.res, b.tr
	for _, r := range b.c.retired {
		if r.final.m.BlocksRejected != 0 || r.final.m.EquivocationsSeen != 0 {
			tr.violate("s%d rejected %d blocks and saw %d equivocations", r.id, r.final.m.BlocksRejected, r.final.m.EquivocationsSeen)
		}
		if r.err != nil {
			tr.violate("s%d unhealthy: %v", r.id, r.err)
		}
		if r.inWindow && r.ended {
			res.ctr = res.ctr.add(r.winEnd.sub(r.winBase))
		}
		res.rejections += r.final.rejections
		res.authFail += r.final.authFailures
		res.peakDepth = max(res.peakDepth, r.final.mp.PeakDepth)
		if r.rejoined {
			res.follow.polls += r.followRep.Polls
			res.follow.blocks += r.followRep.Blocks
			res.follow.errors += r.followRep.Errors
		}
	}
	w := tr.window(winStart, winEnd, latencyLimit)
	res.attempted += w.attempted
	res.failed += w.refused + w.late
	res.checked += tr.checked
	res.delivered += w.completedIn
	if b.tc == nil {
		return w
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b.tc.mu.Lock()
	defer b.tc.mu.Unlock()
	for label, rec := range tr.recs {
		if rec.due < winStart || rec.due >= winEnd || rec.refused {
			continue
		}
		bcast, ok := b.tc.bcast[label]
		if !ok {
			continue
		}
		res.mpWaitMs = append(res.mpWaitMs, float64(bcast-rec.sent)/1e6)
		if rec.done != 0 {
			res.b2iMs = append(res.b2iMs, float64(rec.done-bcast)/1e6)
		}
	}
	return w
}

func sleepUntil(at int64) {
	if d := time.Duration(at - now()); d > 0 {
		time.Sleep(d)
	}
}

// sampler polls the process's resident memory, live heap and goroutine
// count while a window is open, keeping the peaks.
type sampler struct {
	done       chan struct{}
	wg         sync.WaitGroup
	rssMB      float64
	heapMB     float64
	goroutines int
}

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			s.rssMB = max(s.rssMB, rssMB())
			s.heapMB = max(s.heapMB, float64(heapBytes())/(1<<20))
			s.goroutines = max(s.goroutines, runtime.NumGoroutine())
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop takes a last sample and waits for the sampler to exit.
func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
	s.rssMB = max(s.rssMB, rssMB())
}

// rssMB is the process's current resident set size.
func rssMB() float64 {
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(statm))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

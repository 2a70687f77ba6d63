package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"

	"blockdag/internal/types"
)

// gen derives every input of a run from the workload seed: labels,
// payload bytes and Poisson inter-arrival gaps. It is used from one
// goroutine only, so the same seed yields the same input sequence.
type gen struct {
	rng     *rand.Rand
	prefix  string
	payload int
	next    int
}

// newGen seeds round's generator; rounds draw independent streams and
// distinct labels.
func newGen(seed uint64, round int, wl workload) *gen {
	return &gen{
		rng:     rand.New(rand.NewPCG(seed, uint64(round))),
		prefix:  fmt.Sprintf("%s%d", wl.prefix, round),
		payload: wl.payload,
	}
}

// label returns the next distinct label and its payload.
func (g *gen) label() (types.Label, []byte) {
	g.next++
	label := types.Label(fmt.Sprintf("%s/%06d/%016x", g.prefix, g.next, g.rng.Uint64()))
	data := make([]byte, g.payload)
	for i := 0; i < len(data); i += 8 {
		v := g.rng.Uint64()
		for j := i; j < i+8 && j < len(data); j++ {
			data[j] = byte(v)
			v >>= 8
		}
	}
	return label, data
}

// arrivals returns the due times of a Poisson process at rate per second
// over [from, to), conditioned on its expected count: that many times
// drawn uniformly and sorted. Fixing the count keeps the offered load of
// every seed the same while the arrival pattern stays Poisson.
func (g *gen) arrivals(rate float64, from, to int64) []int64 {
	n := int(math.Round(rate * float64(to-from) / float64(time.Second)))
	due := make([]int64, n)
	for i := range due {
		due[i] = from + g.rng.Int64N(to-from)
	}
	slices.Sort(due)
	return due
}

// loadStats is what the generator observed on its side of each call.
type loadStats struct {
	mu       sync.Mutex
	lagMs    []float64 // open loops: how late each submit started
	submitUs []float64 // node.Submit call time (direct, or the wrapped gateway Submit)
	postUs   []float64 // HTTP round trip (gateway submits)
	selfUs   []float64 // HTTP round trip minus the wrapped Submit span
	non2xx   int
}

func (s *loadStats) note(fn func(*loadStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s)
}

// submitter delivers one label to the cluster.
type submitter func(label types.Label, data []byte, due int64)

// directSubmit calls node.Submit round-robin over the given replicas.
func (b *bench) directSubmit(targets []int) submitter {
	next := 0
	return func(label types.Label, data []byte, due int64) {
		r := b.c.reps[targets[next%len(targets)]]
		next++
		start := now()
		err := r.nd.Submit(label, data)
		b.tr.submitted(label, start, err)
		took := now() - start
		b.res.ls.note(func(s *loadStats) { s.submitUs = append(s.submitUs, float64(took)/1e3) })
	}
}

// httpWorkers is the number of keep-alive connections the gateway
// client uses.
const httpWorkers = 2

// gatewayClient posts labels to s0's gateway over httpWorkers keep-alive
// connections, fed by the generator.
type gatewayClient struct {
	b      *bench
	url    string
	client *http.Client
	queue  chan gwJob
	wg     sync.WaitGroup
}

type gwJob struct {
	label types.Label
	data  []byte
	due   int64
}

func (b *bench) newGatewayClient() *gatewayClient {
	tr := &http.Transport{MaxConnsPerHost: httpWorkers, MaxIdleConnsPerHost: httpWorkers, DisableCompression: true}
	gc := &gatewayClient{
		b:      b,
		url:    "http://" + b.c.reps[0].gw.Addr() + "/v1/submit",
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		// The queue holds seconds of arrivals at the open-loop rate, so a
		// slow POST delays later ones (visible as generator lag) instead
		// of stalling the schedule.
		queue: make(chan gwJob, 1024),
	}
	for i := 0; i < httpWorkers; i++ {
		gc.wg.Add(1)
		go gc.work()
	}
	return gc
}

func (gc *gatewayClient) submit(label types.Label, data []byte, due int64) {
	gc.queue <- gwJob{label: label, data: data, due: due}
}

// close stops the workers once the queue drains and waits for them.
func (gc *gatewayClient) close() {
	close(gc.queue)
	gc.wg.Wait()
	gc.client.CloseIdleConnections()
}

func (gc *gatewayClient) work() {
	defer gc.wg.Done()
	b := gc.b
	for job := range gc.queue {
		body, _ := json.Marshal(map[string]string{
			"label":    string(job.label),
			"data_b64": base64.StdEncoding.EncodeToString(job.data),
		}) // a map of strings always marshals
		start := now()
		resp, err := gc.client.Post(gc.url, "application/json", bytes.NewReader(body))
		ok := false
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive
			_ = resp.Body.Close()
			ok = resp.StatusCode/100 == 2
		}
		end := now()
		var submitNs int64
		if b.tc != nil {
			submitNs = b.tc.httpSpan(job.label, start, end)
		}
		if !ok && err == nil {
			err = fmt.Errorf("gateway answered %d", resp.StatusCode)
		}
		b.tr.submitted(job.label, start, err)
		b.res.ls.note(func(s *loadStats) {
			s.lagMs = append(s.lagMs, float64(start-job.due)/1e6)
			s.postUs = append(s.postUs, float64(end-start)/1e3)
			if b.tc != nil && submitNs > 0 {
				s.selfUs = append(s.selfUs, float64(end-start-submitNs)/1e3)
				s.submitUs = append(s.submitUs, float64(submitNs)/1e3)
			}
			if !ok {
				s.non2xx++
			}
		})
	}
}

// openLoop submits Poisson arrivals at rate through the warm-up
// [start, win) and the window [win, stop), timing each label from its due
// time. It runs on one goroutine.
func (b *bench) openLoop(g *gen, rate float64, submit submitter, direct bool, start, win, stop int64) {
	for _, due := range append(g.arrivals(rate, start, win), g.arrivals(rate, win, stop)...) {
		label, data := g.label()
		b.tr.add(label, data, due)
		if wait := time.Duration(due - now()); wait > 0 {
			time.Sleep(wait)
		}
		if direct {
			lag := float64(now()-due) / 1e6
			b.res.ls.note(func(s *loadStats) { s.lagMs = append(s.lagMs, lag) })
		}
		submit(label, data, due)
	}
}

// closedLoop keeps window labels outstanding until stop: each completion
// (indicated on every replica) releases the next submit.
func (b *bench) closedLoop(g *gen, window int, submit submitter, stop int64) {
	issue := func() {
		label, data := g.label()
		due := now()
		b.tr.add(label, data, due)
		submit(label, data, due)
	}
	for i := 0; i < window; i++ {
		issue()
	}
	timer := time.NewTimer(time.Duration(stop - now()))
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return
		case <-b.tr.doneC:
			issue()
		}
	}
}

// Command e2ebench is the repository's end-to-end benchmark. It stands up
// an in-process n=4 cluster the way examples/tcp deploys one — node
// runtimes running core.Server with protocols/brb, tcpnet over loopback
// with roster-authenticated handshakes, a durable store per replica, a
// mempool on every replica and the sync service on ChanSync — drives one
// named workload from a seeded load generator, checks every indication
// against what was submitted, and prints the result as one JSON line:
//
//	bash e2ebench/run.sh --workload submit-open --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then with forwarding wrappers around the layer
// seams, and prints the per-layer metrics, each layer's self time and the
// tracing overhead; the span log is written under --dir's parent.
//
// No message delay is injected: latency is processor time, fsync and
// block cadence on loopback.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one fixed traffic mix. BENCHMARK.json gives the reason
// each exists and targets.json its configuration.
type workload struct {
	name    string
	prefix  string  // label prefix
	rate    float64 // open loop: Poisson arrivals per second
	window  int     // closed loop: labels outstanding
	payload int     // bytes per label
	gateway bool    // submit through POST /v1/submit on s0
	// cycles, when set, crash and restart the victim during each round's
	// window: each entry is the crash time as a fraction of the window.
	cycles []float64
}

var workloads = []workload{
	{name: "submit-open", prefix: "o", rate: 200, payload: 64, gateway: true},
	{name: "saturate-1k", prefix: "s", window: 256, payload: 1024},
	{name: "restart-catchup", prefix: "r", rate: 200, payload: 64, cycles: []float64{0.10, 0.55}},
}

const (
	// warmup runs the load before the measured window opens.
	warmup = 500 * time.Millisecond
	// latencyLimit is how long a label may take to be indicated on
	// every live replica before it counts as failed.
	latencyLimit = 5 * time.Second
	// outage is how long the victim stays down per crash cycle.
	outage = 500 * time.Millisecond
	// rejoinLimit bounds one rejoin; exceeding it is a violation.
	rejoinLimit = 20 * time.Second
	// settleLimit bounds the wait for every replica to indicate every
	// accepted label once the load stops.
	settleLimit = 15 * time.Second
	// runDeadline bounds a whole invocation: a run that has not finished
	// by then has failed, and exiting beats hanging on a wedged cluster.
	runDeadline = 175 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: submit-open | saturate-1k | restart-catchup")
		seed    = flag.Uint64("seed", 1, "workload seed: labels, payloads and arrival times derive from it")
		seconds = flag.Int("seconds", 18, "length of the measured window in seconds, shared by the rounds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: untraced then traced run, per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "e2e-run"), "scratch directory for the replicas' stores (removed afterwards)")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return errors.New("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: no result within %v\n", runDeadline)
		os.Exit(2)
	})
	rep, err := measure(*wl, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if rep.traced != nil {
		tr := rep.traced
		res.Metrics = rep.perLayer
		spans := filepath.Join(filepath.Dir(*dir), fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		if err := tr.tc.dump(spans); err != nil {
			return err
		}
		fmt.Printf("self time per layer (traced %s, seed %d; spans in %s, %d dropped past the cap):\n",
			wl.name, *seed, spans, tr.tc.dropped)
		for _, l := range tr.tc.selfTimes() {
			fmt.Printf("  %-10s %9d spans %12.1f ms self %10.2f us/label\n",
				l.Layer, l.Spans, l.SelfMs, 1e3*ratio(l.SelfMs, float64(tr.delivered)))
		}
		fmt.Printf("trace.overhead_frac %.4f (cpu_ms_per_label untraced %.4f, traced %.4f)\n",
			tr.overhead, rep.plain.cpuMsPerLabel, tr.cpuMsPerLabel)
	}
	return printResult(rep.header, res)
}

// report is one invocation's outcome: the untraced run's end-to-end
// metrics and, when traced, the traced run's per-layer metrics.
type report struct {
	header            map[string]any
	attempted, failed int
	checked           int // indications compared against submitted values
	plain, traced     *runResult
	endToEnd          map[string]metric
	perLayer          map[string]metric
}

// measure calibrates the host, runs the workload untraced and, with
// traced set, again with tracing. Any correctness violation is an error.
func measure(wl workload, seed uint64, seconds int, traced bool, dir string) (*report, error) {
	window := time.Duration(seconds) * time.Second
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	host := fingerprint(dir)
	verifyUs, fsyncMs, err := calibrate(dir)
	if err != nil {
		return nil, err
	}
	plain, err := runOnce(wl, seed, window, filepath.Join(dir, "plain"), false)
	if err != nil {
		return nil, err
	}
	rep := &report{
		attempted: plain.attempted, failed: plain.failed, checked: plain.checked,
		plain: plain, endToEnd: map[string]metric{},
		// The fingerprint line printed ahead of the result line.
		header: map[string]any{
			"workload": wl.name, "seed": seed, "seconds": seconds, "traced": traced,
			"host": host, "host.ed25519_verify_us": verifyUs, "host.fsync_ms": fsyncMs,
			"rounds": rounds, "window_labels": plain.attempted, "rejoin_samples": len(plain.rejoins),
			"per_round":     plain.roundsJSON(),
			"commit_p99_ms": quantile(plain.pooled(roundLatencies), 0.99),
		},
	}
	for _, m := range endToEnd {
		rep.endToEnd[m.name] = metric{Value: m.value(plain), Unit: m.unit}
	}
	if !traced {
		return rep, nil
	}
	tr, err := runOnce(wl, seed, window, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, err
	}
	rep.traced = tr
	rep.attempted += tr.attempted
	rep.failed += tr.failed
	rep.checked += tr.checked
	tr.verifyUs, tr.fsyncMs = verifyUs, fsyncMs
	tr.overhead = ratio(tr.cpuMsPerLabel, plain.cpuMsPerLabel) - 1
	rep.perLayer = map[string]metric{}
	for _, m := range perLayer {
		rep.perLayer[m.name] = metric{Value: m.value(tr), Unit: m.unit}
	}
	return rep, nil
}

// printResult prints the fingerprint line and, last, the result line.
func printResult(header map[string]any, res result) error {
	for _, v := range []any{header, res} {
		out, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	return nil
}

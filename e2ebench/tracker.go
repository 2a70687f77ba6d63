package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"blockdag/internal/types"
)

// epoch is the zero of every timestamp the benchmark records.
var epoch = time.Now()

// now is the benchmark clock: monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// labelRec is one submitted label's lifecycle, in nanoseconds since
// epoch. Zero means "not yet".
type labelRec struct {
	value   []byte
	due     int64 // when the generator meant to submit it
	sent    int64 // when the submit call began
	done    int64 // indicated on every required replica
	refused bool  // the submit call returned an error
	mask    uint8 // replicas that indicated it (current incarnations)
}

// tracker is the benchmark's ground truth: every label it submitted with
// its value, every indication every replica surfaced, and the
// correctness violations seen. Indications arrive on the replicas' loop
// goroutines; everything is guarded by mu.
type tracker struct {
	mu   sync.Mutex
	recs map[types.Label]*labelRec
	// sets[i] is replica i's indication set since its last (re)start.
	sets [nReplicas]map[types.Label]struct{}
	// need is the replica mask a label must reach to count as done.
	need       uint8
	violations []string
	// checked counts indications compared against the submitted value.
	checked int
	// doneC receives each label as it completes, when non-nil (the
	// closed loop). Sized by the caller to the number of labels that can
	// be outstanding at once, so sends never block.
	doneC chan types.Label
}

func newTracker() *tracker {
	t := &tracker{recs: make(map[types.Label]*labelRec), need: allReplicas}
	for i := range t.sets {
		t.sets[i] = make(map[types.Label]struct{})
	}
	return t
}

// add registers a label before it is submitted.
func (t *tracker) add(label types.Label, value []byte, due int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.recs[label]; dup {
		t.violations = append(t.violations, fmt.Sprintf("generator produced label %q twice", label))
		return
	}
	t.recs[label] = &labelRec{value: value, due: due}
}

// submitted records the outcome of the submit call that began at start.
func (t *tracker) submitted(label types.Label, start int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec := t.recs[label]; rec != nil {
		rec.sent = start
		rec.refused = err != nil
	}
}

// indicate is every replica's OnIndication hook: check the value against
// what was submitted (validity, agreement) and mark completion.
func (t *tracker) indicate(replica int, label types.Label, value []byte) {
	at := now()
	var done bool
	t.mu.Lock()
	rec := t.recs[label]
	switch {
	case rec == nil:
		t.violations = append(t.violations, fmt.Sprintf("s%d indicated unknown label %q", replica, label))
	case !t.check(rec.value, value):
		t.violations = append(t.violations, fmt.Sprintf("s%d indicated %q with a value other than the submitted one", replica, label))
	default:
		t.sets[replica][label] = struct{}{}
		rec.mask |= 1 << replica
		if rec.done == 0 && rec.mask&t.need == t.need {
			rec.done = at
			done = true
		}
	}
	doneC := t.doneC
	t.mu.Unlock()
	if done && doneC != nil {
		doneC <- label
	}
}

// setNeed sets the replica mask a label must reach to be done and, for
// a closed loop, sizes the completion channel to the labels that can be
// outstanding at once.
func (t *tracker) setNeed(mask uint8, outstanding int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.need = mask
	if outstanding > 0 {
		t.doneC = make(chan types.Label, outstanding)
	}
}

func (t *tracker) check(want, got []byte) bool {
	t.checked++
	return bytes.Equal(want, got)
}

// resetReplica forgets replica i's indications: a restarted process
// starts with none and replays them from its store.
func (t *tracker) resetReplica(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sets[i] = make(map[types.Label]struct{})
	for _, rec := range t.recs {
		rec.mask &^= 1 << i
	}
}

// violate records a correctness violation found outside the hooks.
func (t *tracker) violate(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.violations = append(t.violations, fmt.Sprintf(format, args...))
}

// doneEverywhere returns the labels indicated by every replica in mask.
func (t *tracker) doneEverywhere(mask uint8) []types.Label {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []types.Label
	for label, rec := range t.recs {
		if rec.mask&mask == mask {
			out = append(out, label)
		}
	}
	return out
}

// missing returns the labels of want that replica i has not indicated.
func (t *tracker) missing(i int, want []types.Label) []types.Label {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := want[:0]
	for _, label := range want {
		if _, ok := t.sets[i][label]; !ok {
			out = append(out, label)
		}
	}
	return out
}

// isDone reports whether label has been indicated on every required
// replica.
func (t *tracker) isDone(label types.Label) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recs[label]
	return rec != nil && rec.done != 0
}

// settled reports whether every replica has indicated every accepted
// label.
func (t *tracker) settled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.recs {
		if !rec.refused && rec.mask != allReplicas {
			return false
		}
	}
	return true
}

// outstanding counts accepted labels not yet done.
func (t *tracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, rec := range t.recs {
		if rec.done == 0 && !rec.refused {
			n++
		}
	}
	return n
}

// checkSetsEqual verifies agreement at quiescence: every replica in mask
// indicated exactly the same label set.
func (t *tracker) checkSetsEqual(mask uint8, when string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ref := -1
	for i := 0; i < nReplicas; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if ref < 0 {
			ref = i
			continue
		}
		if len(t.sets[i]) != len(t.sets[ref]) {
			t.violations = append(t.violations, fmt.Sprintf("%s: s%d indicated %d labels, s%d %d",
				when, i, len(t.sets[i]), ref, len(t.sets[ref])))
			continue
		}
		for label := range t.sets[ref] {
			if _, ok := t.sets[i][label]; !ok {
				t.violations = append(t.violations, fmt.Sprintf("%s: s%d lacks %q that s%d indicated", when, i, label, ref))
				break
			}
		}
	}
}

// window summarizes the labels due in [from, to): the measured load.
type windowStats struct {
	attempted int
	refused   int
	late      int // accepted but not done within the limit
	latencies []float64
	// completedIn counts labels (due anywhere) that completed inside
	// [from, to): the delivered throughput.
	completedIn int
}

func (t *tracker) window(from, to int64, limit time.Duration) windowStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var w windowStats
	for _, rec := range t.recs {
		if rec.done >= from && rec.done < to {
			w.completedIn++
		}
		if rec.due < from || rec.due >= to {
			continue
		}
		w.attempted++
		switch {
		case rec.refused:
			w.refused++
		case rec.done == 0 || rec.done-rec.due > int64(limit):
			w.late++
		default:
			w.latencies = append(w.latencies, float64(rec.done-rec.due)/1e6)
		}
	}
	return w
}

// err returns the violations as one error, nil when there are none.
func (t *tracker) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.violations) == 0 {
		return nil
	}
	const show = 5
	v := t.violations
	if len(v) > show {
		v = append(v[:show:show], fmt.Sprintf("... and %d more", len(t.violations)-show))
	}
	return fmt.Errorf("correctness violations: %v", v)
}

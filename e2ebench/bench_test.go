package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSmoke runs every workload briefly, traced, and checks that each
// metric BENCHMARK.json names comes out with its unit and nothing else
// does, and that the correctness checks saw the cluster's indications.
func TestSmoke(t *testing.T) {
	var bm benchmarkFile
	loadJSON(t, "../BENCHMARK.json", &bm)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		wl := workloads[i]
		if w.Name != wl.name {
			t.Fatalf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			rep, err := measure(wl, 7, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.checked < rep.attempted {
				t.Fatalf("%d labels attempted, %d indications checked", rep.attempted, rep.checked)
			}
			if rep.failed != 0 {
				t.Errorf("%d of %d labels failed", rep.failed, rep.attempted)
			}
			checkMetrics(t, "end-to-end", rep.endToEnd, bm.EndToEnd)
			checkMetrics(t, "per-layer", rep.perLayer, bm.PerLayer)
			for _, name := range []string{"commit_p50_ms", "delivered_per_s", "cpu_ms_per_label", "rejoin_p50_s", "setup_s"} {
				if rep.endToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.endToEnd[name].Value)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s missing", kind, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s metric %s in %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestTargetsCoverPerLayer checks that targets.json records, for every
// per-layer metric, the end-to-end metric and workload it should move.
func TestTargetsCoverPerLayer(t *testing.T) {
	var targets struct {
		PerLayer map[string]struct {
			Moves    []string `json:"moves"`
			Workload []string `json:"workload"`
		} `json:"per_layer"`
	}
	loadJSON(t, "targets.json", &targets)
	for _, m := range perLayer {
		tg, ok := targets.PerLayer[m.name]
		if !ok || len(tg.Moves) == 0 || len(tg.Workload) == 0 {
			t.Errorf("targets.json has no target for %s", m.name)
		}
	}
	if len(targets.PerLayer) != len(perLayer) {
		t.Errorf("targets.json lists %d per-layer metrics, the program %d", len(targets.PerLayer), len(perLayer))
	}
}

// TestTrackerRejectsWrongValue shows the validity check can fail: an
// indication whose value differs from the submitted one, or of a label
// never submitted, is a violation.
func TestTrackerRejectsWrongValue(t *testing.T) {
	tr := newTracker()
	tr.add("a", []byte("v"), now())
	tr.indicate(0, "a", []byte("v"))
	if err := tr.err(); err != nil {
		t.Fatalf("matching indication flagged: %v", err)
	}
	tr.indicate(1, "a", []byte("w"))
	if tr.err() == nil {
		t.Fatal("indication with a different value passed")
	}
	tr = newTracker()
	tr.indicate(2, "never-submitted", nil)
	if tr.err() == nil {
		t.Fatal("indication of an unknown label passed")
	}
}

// TestGeneratorSeeded checks that inputs derive from the seed alone.
func TestGeneratorSeeded(t *testing.T) {
	wl := workloads[0]
	a, b, c := newGen(5, 0, wl), newGen(5, 0, wl), newGen(6, 0, wl)
	la, da := a.label()
	lb, db := b.label()
	lc, _ := c.label()
	if la != lb || string(da) != string(db) {
		t.Fatal("same seed gave different inputs")
	}
	if la == lc {
		t.Fatal("different seeds gave the same label")
	}
	ta, tb := a.arrivals(400, 0, 1e9), b.arrivals(400, 0, 1e9)
	if len(ta) != 400 || len(tb) != 400 || ta[17] != tb[17] {
		t.Fatalf("arrivals: %d and %d, not the same 400", len(ta), len(tb))
	}
}

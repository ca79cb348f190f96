package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eventcap/internal/experiments"
)

// benchmarkMetrics reads the metric names and units the repository's
// BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Loads    []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Loads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness defines %d", len(doc.Loads), len(workloads))
	}
	for _, l := range doc.Loads {
		if _, ok := workloadByName(l.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", l.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tinyIDs are the experiments a tiny run keeps: each finishes in well
// under a second at tinySlots, so the self-test covers every workload's
// code path without the full solver cost.
var tinyIDs = map[string]bool{
	"fig3a": true, "ablation-lp": true, "ablation-pomdp": true,
	"ablation-recharge": true, "ablation-loadbalance": true, "ablation-faults": true,
}

const tinySlots = 5_000

// shrink returns the workload at the tiny size used by the self-test.
func (w workload) shrink() workload {
	ids := w.ids
	if ids == nil {
		ids = experiments.IDs()
	}
	w.ids = nil
	for _, id := range ids {
		if tinyIDs[id] {
			w.ids = append(w.ids, id)
		}
	}
	w.slots = tinySlots
	return w
}

func tinyConfig(t *testing.T, name string, traced bool) config {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return config{w: w.shrink(), seed: 7, seconds: 0, traced: traced,
		expectedDir: "expected", outDir: t.TempDir()}
}

// assertMetrics checks that a result carries exactly the promised
// metrics, each with its unit.
func assertMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, m := range res.metrics {
		got[m.name] = m.unit
	}
	for name, unit := range want {
		if u, ok := got[name]; !ok {
			t.Errorf("metric %s not emitted", name)
		} else if u != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, u, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}

// TestTinyWorkloadsEmitEveryMetric runs each workload at the tiny size,
// untraced and traced, and checks every metric of BENCHMARK.json comes
// out with its unit, no operation fails, and the JSON line parses.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w.name, traced)
			res, err := run(cfg, time.Now(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed", w.name, traced, res.failed, res.attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			assertMetrics(t, res, want)
			line, err := res.json()
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal([]byte(line), &doc); err != nil || doc["correct"] != true {
				t.Errorf("%s traced=%t: bad result line %s (%v)", w.name, traced, line, err)
			}
			for _, m := range res.metrics {
				if traced && m.name == "profile.cpu_s" && m.value <= 0 {
					t.Errorf("%s: empty CPU profile", w.name)
				}
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, m.value)
				}
			}
		}
	}
}

// TestPerturbedCellFailsGate shows the output check can fail: a tiny
// run's own CSVs, stored as the expectation, pass; the same with one
// cell moved by 1e-6 fails that operation and raises error_rate.
func TestPerturbedCellFailsGate(t *testing.T) {
	cfg := tinyConfig(t, "sim-batch", false)
	s := &session{cfg: cfg}
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	p := s.runPass(false)
	csvs := map[string][]byte{}
	want := expectation{rows: map[string][][]string{}, cells: true}
	for _, o := range p.ops {
		if o.err != nil {
			t.Fatal(o.err)
		}
		csvs[o.id] = o.csv
		want.rows[o.id] = csvRows(o.csv)
	}

	cfg.want = &want
	res, err := run(cfg, time.Now(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("unperturbed expectation: %d of %d operations failed", res.failed, res.attempted)
	}

	id := cfg.w.ids[0]
	perturbed := expectation{rows: map[string][][]string{}, cells: true}
	for k, v := range want.rows {
		perturbed.rows[k] = v
	}
	perturbed.rows[id] = csvRows(perturbCell(t, csvs[id]))
	cfg.want = &perturbed
	cfg.traced = true
	res, err = run(cfg, time.Now(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatal("perturbed expected cell: no operation failed")
	}
	for _, m := range res.metrics {
		if m.name == "error_rate" && m.value <= 0 {
			t.Errorf("error_rate = %v with a perturbed expected cell, want > 0", m.value)
		}
	}
}

// TestSetupReadsNoExpectedCSVs pins what setup_s times: set-up builds
// the pass without touching the stored CSVs, which are the benchmark's
// own check data and read only when the first pass is verified.
func TestSetupReadsNoExpectedCSVs(t *testing.T) {
	cfg := tinyConfig(t, "sim-batch", false)
	cfg.expectedDir = filepath.Join(t.TempDir(), "missing")
	s := &session{cfg: cfg}
	if err := s.setup(); err != nil {
		t.Fatalf("setup with no expected CSVs: %v", err)
	}
	if s.want != nil {
		t.Fatal("setup loaded the expectation")
	}
	if _, err := os.Stat(s.dir); err != nil {
		t.Fatalf("setup made no output directory: %v", err)
	}
	if err := s.verify(&pass{}, nil); err == nil {
		t.Fatal("verify without the stored CSVs did not fail")
	}
}

// perturbCell moves the first data cell of a CSV's first series by 1e-6.
func perturbCell(t *testing.T, csv []byte) []byte {
	t.Helper()
	rows := csvRows(csv)
	if len(rows) < 2 || len(rows[1]) < 2 {
		t.Fatalf("CSV too small to perturb: %q", csv)
	}
	var v float64
	if err := json.Unmarshal([]byte(rows[1][1]), &v); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(v + 1e-6)
	rows[1][1] = string(b)
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, ",")
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}

// TestExpectationCheck pins the CSV comparison on a stored CSV: equal
// passes; a data cell off by more than the tolerance fails only when
// cells are compared; a changed x value or header always fails.
func TestExpectationCheck(t *testing.T) {
	csv, err := os.ReadFile(filepath.Join("expected", "repro-quick", "fig3a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cells := expectation{rows: map[string][][]string{"fig3a": csvRows(csv)}, cells: true}
	shape := expectation{rows: cells.rows}
	if err := cells.check("fig3a", csv); err != nil {
		t.Errorf("identical CSV: %v", err)
	}
	moved := perturbCell(t, csv)
	if err := cells.check("fig3a", moved); err == nil {
		t.Error("cell moved by 1e-6 passed the cell check")
	}
	if err := shape.check("fig3a", moved); err != nil {
		t.Errorf("cell moved by 1e-6 failed the shape-only check: %v", err)
	}
	rows := strings.SplitN(string(csv), "\n", 3)
	relabeled := []byte(rows[0] + "\n" + "999" + rows[1][strings.IndexByte(rows[1], ','):] + "\n" + rows[2])
	if err := shape.check("fig3a", relabeled); err == nil {
		t.Error("changed x value passed the shape-only check")
	}
	header := []byte("Kx" + rows[0][strings.IndexByte(rows[0], ','):] + "\n" + rows[1] + "\n" + rows[2])
	if err := shape.check("fig3a", header); err == nil {
		t.Error("changed header passed the shape-only check")
	}
}

// TestScaleCancelsHostSpeed pins the calibration arithmetic: a time
// measured while the calibration loop took twice calRef reads as half
// as long at the reference speed.
func TestScaleCancelsHostSpeed(t *testing.T) {
	if got := scale(2*time.Second, calRef); got != 2 {
		t.Errorf("at the reference speed: %v s, want 2", got)
	}
	if got := scale(2*time.Second, 2*calRef); got != 1 {
		t.Errorf("on a host half as fast: %v s, want 1", got)
	}
}

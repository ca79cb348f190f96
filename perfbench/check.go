package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"eventcap/internal/obs"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

// expectedSeed is the seed the stored CSVs under expected/ were
// generated at (`experiments -seed 1`, the CLI default).
const expectedSeed = 1

// cellTolerance is how far a CSV cell may sit from its stored value.
const cellTolerance = 1e-9

// expectation is what a workload's CSVs must look like, parsed into
// rows of cells. Header and x column never depend on the seed, so they
// are checked on every run; the other cells only when cells is set (the
// run matches the options the stored CSVs were made with).
type expectation struct {
	rows  map[string][][]string // by experiment id
	cells bool
}

// loadExpectation reads <dir>/<workload>/<id>.csv for every experiment
// of the workload.
func loadExpectation(dir string, w workload, exps []string, cells bool) (expectation, error) {
	e := expectation{rows: make(map[string][][]string, len(exps)), cells: cells}
	for _, id := range exps {
		data, err := os.ReadFile(filepath.Join(dir, w.name, id+".csv"))
		if err != nil {
			return e, fmt.Errorf("expected output: %w", err)
		}
		e.rows[id] = csvRows(data)
	}
	return e, nil
}

// check compares one experiment's CSV with its expectation.
func (e expectation) check(id string, got []byte) error {
	wr, ok := e.rows[id]
	if !ok {
		return fmt.Errorf("%s: no expected CSV", id)
	}
	gr := csvRows(got)
	if len(wr) != len(gr) {
		return fmt.Errorf("%s: %d CSV rows, want %d", id, len(gr), len(wr))
	}
	for i := range wr {
		if len(wr[i]) != len(gr[i]) {
			return fmt.Errorf("%s row %d: %d cells, want %d", id, i, len(gr[i]), len(wr[i]))
		}
		for j := range wr[i] {
			w, g := wr[i][j], gr[i][j]
			if i > 0 && j > 0 && !e.cells {
				continue
			}
			if w == g {
				continue
			}
			wf, werr := strconv.ParseFloat(w, 64)
			gf, gerr := strconv.ParseFloat(g, 64)
			if i == 0 || werr != nil || gerr != nil || math.Abs(wf-gf) > cellTolerance {
				return fmt.Errorf("%s row %d col %d: got %q, want %q", id, i, j, g, w)
			}
		}
	}
	return nil
}

// csvRows splits the CSV the experiments write: one header row, then
// numeric rows. Only header cells can be quoted, and none hold commas,
// so a plain split is exact.
func csvRows(data []byte) [][]string {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	rows := make([][]string, len(lines))
	for i, l := range lines {
		rows[i] = strings.Split(l, ",")
	}
	return rows
}

// checkCounters asserts the event accounting identity every engine
// keeps: each event is captured or missed asleep or missed for lack of
// energy.
func checkCounters(diff map[string]float64) error {
	ev, cp := diff["sim.events"], diff["sim.captures"]
	asleep, noenergy := diff["sim.miss.asleep"], diff["sim.miss.noenergy"]
	if cp+asleep+noenergy != ev {
		return fmt.Errorf("event accounting: captures %.0f + missed %.0f + %.0f != events %.0f",
			cp, asleep, noenergy, ev)
	}
	return nil
}

// checkReplay re-derives the run from its trace and compares it with
// the manifest, field for field as `tracetool replay` does.
func checkReplay(man *obs.Manifest, data []byte) error {
	if got := obs.SHA256Hex(data); got != man.Trace.SHA256 {
		return fmt.Errorf("trace sha256 %s, manifest records %s", got, man.Trace.SHA256)
	}
	sum, err := trace.Replay(bytes.NewReader(data))
	if err != nil {
		return err
	}
	metric := func(key string) int64 { return int64(math.Round(man.Metrics[key])) }
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"runs", sum.Runs, man.Trace.Runs},
		{"records", sum.Records, man.Trace.Records},
		{"spans", sum.Spans, man.Trace.Spans},
		{"events", sum.Events, metric("sim.events")},
		{"captures", sum.Captures, metric("sim.captures")},
		{"miss.asleep", sum.MissAsleep, metric("sim.miss.asleep")},
		{"miss.noenergy", sum.MissNoEnergy, metric("sim.miss.noenergy")},
		{"wasted_activations", sum.Wasted, metric("sim.wasted_activations")},
		{"engine runs", sum.Runs, metric("sim.runs.kernel") + metric("sim.runs.reference")},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s: trace %d, manifest %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// checkQoM compares the QoM estimate rebuilt from the trace with the
// manifest's stats block, as `tracetool stats -manifest` does: totals
// exactly, the mean to 1e-9, and the CI half-width to 1e-6 relative
// when both intervals come from batch means.
func checkQoM(man *obs.Manifest, pooled stats.Report) error {
	ms := man.Stats
	if ms == nil {
		return fmt.Errorf("manifest has no stats block")
	}
	if pooled.Events != ms.Events || pooled.Captures != ms.Captures {
		return fmt.Errorf("totals: trace %d/%d events/captures, manifest %d/%d",
			pooled.Events, pooled.Captures, ms.Events, ms.Captures)
	}
	if math.Abs(pooled.Mean-ms.Mean) > 1e-9 {
		return fmt.Errorf("qom mean: trace %.12f, manifest %.12f", pooled.Mean, ms.Mean)
	}
	batchMeans := ms.Method == stats.MethodBatchMeans ||
		(ms.Method == stats.MethodPooled && ms.Of == stats.MethodBatchMeans)
	if batchMeans && ms.HalfWidth > 0 {
		if rel := math.Abs(pooled.HalfWidth-ms.HalfWidth) / ms.HalfWidth; rel > 1e-6 {
			return fmt.Errorf("ci half-width: trace %.9g, manifest %.9g", pooled.HalfWidth, ms.HalfWidth)
		}
	}
	return nil
}

// verify fails every run operation of p whose CSV does not match the
// expectation or, when ref is set, differs by a byte from ref's CSV of
// the same experiment. ref is an earlier pass at the same seed: results
// are deterministic and every probe (spans, stats, tracing, profiling)
// is RNG-neutral, so any byte difference is a defect.
func verify(p *pass, want expectation, ref *pass) {
	prior := make(map[string][]byte)
	if ref != nil {
		for _, o := range ref.ops {
			if o.kind == "run" {
				prior[o.id] = o.csv
			}
		}
	}
	for i := range p.ops {
		o := &p.ops[i]
		if o.kind != "run" || o.err != nil {
			continue
		}
		if err := want.check(o.id, o.csv); err != nil {
			o.err = err
		} else if ref != nil && !bytes.Equal(prior[o.id], o.csv) {
			o.err = fmt.Errorf("%s: CSV differs from an earlier pass at the same seed", o.id)
		}
	}
}

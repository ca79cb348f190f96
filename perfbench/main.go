// Command perfbench is the repository benchmark: it times named
// workloads of the reproduction end to end, in one process, through the
// public entry points of the layers (experiments.Experiment.Run, sim.Run
// through the drivers, trace.Replay/Stats/QoMReports,
// obs.Manifest.Write), checks every output, and with -trace 1 splits
// the time by layer.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload repro-quick|sim-batch|trace-roundtrip [-seed 1] [-seconds 36] [-trace 0|1]
//
// With -trace 0 the run repeats whole passes of the workload until
// -seconds is used up (at least one pass) and reports the end-to-end
// metrics as medians over passes, scaled to a reference host speed by
// a calibration run between operations (calib.go). With -trace 1 it
// runs one untraced pass, then one pass under a CPU profile with the
// harness and engine spans collected, and reports the per-layer
// metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 17, "failed": 0, "metrics": {"wall_s": {"value": 30.1, "unit": "s"}, ...}}
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"eventcap/internal/core"
	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/sim"
)

func main() {
	start := time.Now()
	var (
		name     = flag.String("workload", "", "workload to run: repro-quick, sim-batch or trace-roundtrip")
		seed     = flag.Uint64("seed", expectedSeed, "workload seed (every experiment's -seed)")
		seconds  = flag.Float64("seconds", 36, "measure whole passes for this long (at least one pass)")
		traced   = flag.Int("trace", 0, "1: one untraced and one traced pass, reporting the per-layer metrics")
		expected = flag.String("expected", "perfbench/expected", "directory of the stored seed-1 CSVs")
		out      = flag.String("out", ".bench_build/perfbench", "working directory for outputs (emptied after each pass)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1,
		expectedDir: *expected, outDir: *out, cells: *seed == expectedSeed}
	res, err := run(cfg, start, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

type config struct {
	w           workload
	seed        uint64
	seconds     float64
	traced      bool
	expectedDir string
	outDir      string
	cells       bool // compare CSV cells with the stored CSVs
	// want, when set, replaces the expectation loaded from expectedDir
	// (the self-test's mutation case).
	want *expectation
}

type result struct {
	attempted, failed int
	metrics           []metric
}

func (r result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		doc.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(doc)
	return string(data), err
}

// session holds what setup builds for one pass: the workload's
// experiments, the options every operation runs with and an empty
// output directory. want, the expected outputs, is read once, after
// the first pass, so reading it is never part of a timed set-up.
type session struct {
	cfg  config
	exps []experiments.Experiment
	opts experiments.Options
	dir  string
	want *expectation
}

// setup prepares a cold pass as a fresh CLI invocation would see it:
// experiments resolved, output directory created (clean removes it
// after every pass), options built and the policy cache reset.
func (s *session) setup() error {
	exps, err := s.cfg.w.experiments()
	if err != nil {
		return err
	}
	s.exps = exps
	s.dir = filepath.Join(s.cfg.outDir, fmt.Sprintf("%s-%d", s.cfg.w.name, os.Getpid()))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	w := s.cfg.w
	s.opts = experiments.Options{
		Slots: w.slots, Seed: s.cfg.seed, Quick: w.quick, Batch: w.batch,
		Engine: sim.EngineAuto, Progress: obs.NewProgress(),
	}
	core.ResetPolicyCache()
	return nil
}

// verify checks a pass's outputs (see the package-level verify),
// reading the expected CSVs on first use.
func (s *session) verify(p, ref *pass) error {
	if s.want == nil {
		if s.cfg.want != nil {
			s.want = s.cfg.want
		} else {
			ids := make([]string, len(s.exps))
			for i, e := range s.exps {
				ids[i] = e.ID
			}
			want, err := loadExpectation(s.cfg.expectedDir, s.cfg.w, ids, s.cfg.cells)
			if err != nil {
				return err
			}
			s.want = &want
		}
	}
	verify(p, *s.want, ref)
	return nil
}

// clean deletes a pass's outputs (CSVs, manifests, traces) with their
// directory and collects the pass's garbage, so every pass starts from
// the same disk and heap state.
func (s *session) clean() error {
	err := os.RemoveAll(s.dir)
	runtime.GC()
	return err
}

// minSetups is the fewest set-ups an untraced run times. A run whose
// passes are fewer (repro-quick has one) sets up again after its last
// pass, each time from a removed output directory and a reset cache,
// so setup_s is a median of several samples on every workload.
const minSetups = 9

// run executes the configured run and returns its metrics. log receives
// the human-readable table. The pass directory is removed on return.
//
// The end-to-end metrics are medians over the run, each at the
// reference host speed (calib.go): wall_s and cpu_s over passes,
// setup_s over set-ups. A pass's set-up is scaled like the pass, an
// extra set-up by a calibration of its own. The first set-up counts
// from start, the harness start.
func run(cfg config, start time.Time, log io.Writer) (result, error) {
	s := &session{cfg: cfg}
	defer func() {
		if s.dir != "" {
			_ = os.RemoveAll(s.dir)
		}
	}()
	if err := s.setup(); err != nil {
		return result{}, err
	}
	setup := time.Since(start)
	if cfg.traced {
		return runTraced(s, log)
	}
	calibrate() // warm-up: lane buffers, goroutines, CPU frequency

	var (
		res                         result
		first                       *pass
		walls, cpus, setups, passes []float64
	)
	measure := time.Now()
	for {
		from := time.Now()
		if first != nil {
			if err := s.setup(); err != nil {
				return result{}, err
			}
			setup = time.Since(from)
		}
		p := s.runPass(true)
		if err := s.verify(p, first); err != nil {
			return result{}, err
		}
		res.count(p, log)
		if first == nil {
			first = p
		}
		setups = append(setups, scale(setup, p.cal))
		walls, cpus = append(walls, p.wallRef), append(cpus, p.cpuRef)
		fmt.Fprintf(log, "perfbench %s pass %d: setup %.6f s, wall %.3f s, cpu %.3f s, calibration %.1f ms; at reference speed: wall %.3f s, cpu %.3f s;",
			cfg.w.name, len(walls), setup.Seconds(), p.wall.Seconds(), p.cpu.Seconds(),
			1e3*p.cal.Seconds(), p.wallRef, p.cpuRef)
		for _, o := range p.ops {
			fmt.Fprintf(log, " %s(%s) %.3f", o.id, o.kind, o.wall.Seconds())
		}
		fmt.Fprintln(log)
		if err := s.clean(); err != nil {
			return result{}, err
		}
		passes = append(passes, time.Since(from).Seconds())
		if time.Since(measure).Seconds()+median(passes) > cfg.seconds {
			break
		}
	}
	for len(setups) < minSetups {
		from := time.Now()
		if err := s.setup(); err != nil {
			return result{}, err
		}
		setups = append(setups, scale(time.Since(from), calibrate()))
		if err := s.clean(); err != nil {
			return result{}, err
		}
	}
	res.metrics = []metric{
		{"wall_s", "s", median(walls)},
		{"setup_s", "s", median(setups)},
		{"cpu_s", "s", median(cpus)},
	}
	fmt.Fprintf(log, "perfbench %s seed %d: %d pass(es), %d set-ups, %d/%d operations failed\n",
		cfg.w.name, cfg.seed, len(walls), len(setups), res.failed, res.attempted)
	printTable(log, res.metrics)
	fmt.Fprintf(log, "  (peak RSS %.1f MB; a per-layer metric, see README.md)\n", peakRSSMB())
	return res, nil
}

// runTraced runs one untraced pass, then one traced pass: CPU profile
// on, the harness and engine span tree exported as a Chrome trace. The
// traced pass's CSVs must equal the untraced pass's byte for byte.
func runTraced(s *session, log io.Writer) (result, error) {
	var res result
	u := s.runPass(false)
	if err := s.verify(u, nil); err != nil {
		return result{}, err
	}
	res.count(u, log)
	if err := s.clean(); err != nil {
		return result{}, err
	}
	if err := s.setup(); err != nil {
		return result{}, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("starting cpu profile: %w", err)
	}
	t := s.runPass(false)
	pprof.StopCPUProfile()
	if err := s.verify(t, u); err != nil {
		return result{}, err
	}
	res.count(t, log)
	cpu, err := cpuByPackage(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	spans := filepath.Join(s.cfg.outDir, s.cfg.w.name+".spans.json")
	if err := writeSpans(spans, t.root); err != nil {
		return result{}, err
	}
	res.metrics = perLayer(s.cfg.w, t, u, cpu, float64(res.failed)/float64(res.attempted))
	fmt.Fprintf(log, "perfbench %s seed %d traced: %d/%d operations failed; spans in %s\n",
		s.cfg.w.name, s.cfg.seed, res.failed, res.attempted, spans)
	printTable(log, res.metrics)
	printShares(log, res.metrics)
	return res, nil
}

// count adds a pass's operations to the run's totals and logs failures.
func (r *result) count(p *pass, log io.Writer) {
	r.attempted += len(p.ops)
	for _, o := range p.ops {
		if o.err != nil {
			r.failed++
			fmt.Fprintf(log, "perfbench: operation %s (%s) failed: %v\n", o.id, o.kind, o.err)
		}
	}
}

func writeSpans(path string, root *obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating spans file: %w", err)
	}
	werr := obs.WriteChromeTrace(f, root)
	cerr := f.Close()
	return errors.Join(werr, cerr)
}

func printTable(log io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(log, "  %-36s %16.6f %s\n", m.name, m.value, m.unit)
	}
}

// printShares prints the ratios that show which layer a workload
// stresses: the solver's share of profiled CPU, and the engines' and
// the trace close/read-back's shares of traced wall time.
func printShares(log io.Writer, ms []metric) {
	v := make(map[string]float64, len(ms))
	for _, m := range ms {
		v[m.name] = m.value
	}
	solver := v["core.cpu_s"] + v["renewal.cpu_s"] + v["dist.cpu_s"] + v["numeric.cpu_s"] + v["mdp.cpu_s"]
	wall := v["traced_wall_s"]
	fmt.Fprintf(log, "  share: solver (core+renewal+dist+numeric+mdp) %.1f%% of profiled CPU\n",
		100*ratio(solver, v["profile.cpu_s"]))
	fmt.Fprintf(log, "  share: sim.busy_s %.1f%% of traced wall\n", 100*ratio(v["sim.busy_s"], wall))
	fmt.Fprintf(log, "  share: trace close+replay+stats %.1f%% of traced wall\n",
		100*ratio(v["trace.close_s"]+v["trace.replay_s"]+v["trace.stats_s"], wall))
	fmt.Fprintf(log, "  share: unattributed %.3f%% of traced wall\n", 100*ratio(v["unattributed_s"], wall))
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/trace"
)

// workload is one named set of operations. Every operation goes through
// the public entry points a cmd/experiments user reaches: Experiment.Run
// under the CLI defaults (auto engine, metrics and streaming stats on,
// one worker per CPU, phase spans attached), then the CSV and the run
// manifest. With traced set, every experiment also writes a full slot
// trace that a second operation reads back and checks against the
// manifest, as `make trace-verify` does.
type workload struct {
	name   string
	ids    []string // nil: every registered experiment, in registry order
	quick  bool
	slots  int64 // 0: the experiments' default (1e6; 1e5 with quick)
	batch  int
	traced bool
}

// The workloads stress different layers, so a change to one layer has
// a workload that exercises it and one that bypasses it (the "why" of
// each is in BENCHMARK.json).
var workloads = []workload{
	// experiments -run all -quick: the reproduction unit, solver-bound
	// (core.EvaluatePI); the engines are a few percent of its wall time.
	{name: "repro-quick", quick: true},
	// Batched sweeps whose FI solves are trivial: the slot engines hold
	// the wall time, across the batch, fleet batch, independent-sensor
	// and batch-fallback paths. ablation-adaptive is left out: about a
	// second of each of its runs is policy solving outside the engines,
	// and a solver change must not move this workload. T=5e5 rather
	// than the full 1e6 keeps a pass near 4 s, so a run takes the
	// median of several.
	{
		name:  "sim-batch",
		ids:   []string{"fig3a", "ablation-recharge", "ablation-loadbalance", "ablation-faults"},
		slots: 500_000,
		batch: 8,
	},
	// Full slot traces (~120 MB) written, then read back and checked:
	// the only workload where trace and obs I/O dominate. The tracer
	// sends fleets to the reference loop and forces one worker. T=1e5
	// keeps a pass near 4 s, so a run takes the median of several.
	{
		name:   "trace-roundtrip",
		ids:    []string{"fig3a", "ablation-loadbalance", "ablation-faults"},
		slots:  100_000,
		traced: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) experiments() ([]experiments.Experiment, error) {
	if w.ids == nil {
		return experiments.All(), nil
	}
	out := make([]experiments.Experiment, 0, len(w.ids))
	for _, id := range w.ids {
		exp, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown experiment %q", w.name, id)
		}
		out = append(out, exp)
	}
	return out, nil
}

// op is the outcome of one operation: an experiment run (kind "run") or
// a trace read-back check (kind "readback").
type op struct {
	id   string
	kind string
	wall time.Duration
	cpu  time.Duration // process user+sys CPU over the operation
	csv  []byte        // run ops only
	err  error
}

// pass is one timed execution of every operation of a workload.
type pass struct {
	wall time.Duration // summed wall time of the operations
	cpu  time.Duration // summed process user+sys CPU of the operations
	// cals are the pass's calibrations (calib.go), one before every
	// operation and one after the last, and cal is their median.
	// wallRef and cpuRef are wall and cpu scaled by cal to the
	// reference host speed. All are zero in a pass run without
	// calibration.
	cals            []time.Duration
	cal             time.Duration
	wallRef, cpuRef float64
	ops             []op
	root            *obs.Span           // harness span tree: one child per operation
	diff            map[string]float64  // obs.Snapshot diff over the pass
	slots           int64               // simulated slot-sensor-replication work
	mem             [2]runtimeMemSample // runtime.MemStats before and after
}

// runPass executes the workload's operations once into the directory
// setup created, with the options setup built. With calibrated set,
// every operation is bracketed by calibrations (calib.go), outside its
// timing, and the pass also gets its times at the reference host speed.
func (s *session) runPass(calibrated bool) *pass {
	w, opts := s.cfg.w, s.opts
	p := &pass{root: obs.BeginSpan(w.name)}
	before := obs.Snapshot()
	p.mem[0] = readMem()
	if calibrated {
		p.cals = append(p.cals, calibrate())
	}
	timed := func(o op) {
		p.ops = append(p.ops, o)
		p.wall += o.wall
		p.cpu += o.cpu
		if calibrated {
			p.cals = append(p.cals, calibrate())
		}
	}
	for _, exp := range s.exps {
		o := runOp(p.root, exp, opts, s.dir, w.traced)
		timed(o)
		if w.traced && o.err == nil {
			timed(readbackOp(p.root, exp.ID, s.dir))
			// Dropping each trace once read keeps at most one trace's
			// pages dirty, so writeback seldom stalls a later operation.
			// A failed removal is retried by the end-of-pass clean.
			_ = os.Remove(filepath.Join(s.dir, exp.ID+".evtrace"))
		}
	}
	p.mem[1] = readMem()
	if calibrated {
		p.cal = medianDuration(p.cals)
		p.wallRef, p.cpuRef = scale(p.wall, p.cal), scale(p.cpu, p.cal)
	}
	p.root.End()
	p.diff = obs.Diff(before, obs.Snapshot())
	_, p.slots = opts.Progress.Work()
	return p
}

// runOp mirrors one iteration of cmd/experiments' loop with -out set:
// run the driver under a phase span and a stats collector, close the
// trace, write the CSV and the manifest.
func runOp(parent *obs.Span, exp experiments.Experiment, opts experiments.Options, dir string, traced bool) (o op) {
	o = op{id: exp.ID, kind: "run"}
	start, cpu0 := time.Now(), cpuTime()
	sp := parent.Child(exp.ID)
	defer func() {
		sp.End()
		o.wall, o.cpu = time.Since(start), cpuTime()-cpu0
	}()
	before := obs.Snapshot()
	digest := obs.DigestConfig("experiment="+exp.ID, fmt.Sprintf("slots=%d", opts.Slots),
		fmt.Sprintf("seed=%d", opts.Seed), fmt.Sprintf("quick=%t", opts.Quick),
		"engine="+opts.Engine.String())
	active := obs.DefaultRegistry.Begin(exp.ID, digest, opts.Progress, sp)
	defer active.Complete(obs.RunRecord{Experiment: exp.ID, ConfigDigest: digest})
	coll := &experiments.StatsCollector{Live: active.Stats.Publish}
	opts.Stats = coll

	var (
		tw *trace.Writer
		tf *os.File
	)
	if traced {
		f, err := os.Create(filepath.Join(dir, exp.ID+".evtrace"))
		if err != nil {
			o.err = fmt.Errorf("creating trace file: %w", err)
			return o
		}
		tf, tw = f, trace.NewWriter(f)
		opts.Tracer = trace.New(tw, nil)
	}
	run := sp.Child("run")
	opts.Span = run
	table, err := exp.Run(opts)
	run.End()
	var traceInfo *obs.TraceInfo
	if tw != nil {
		cs := sp.Child("trace.close")
		werr := tw.Close()
		ferr := tf.Close()
		cs.End()
		if err == nil && werr != nil {
			err = werr
		}
		if err == nil && ferr != nil {
			err = fmt.Errorf("closing trace file: %w", ferr)
		}
		c := tw.Counts()
		traceInfo = &obs.TraceInfo{File: exp.ID + ".evtrace", SHA256: tw.SHA256(), Mode: "full",
			Runs: c.Runs, Records: c.Records, Spans: c.Spans}
	}
	if err != nil {
		o.err = fmt.Errorf("running %s: %w", exp.ID, err)
		return o
	}

	ws := sp.Child("write")
	defer ws.End()
	o.csv = []byte(table.CSV())
	if err := os.WriteFile(filepath.Join(dir, exp.ID+".csv"), o.csv, 0o644); err != nil {
		o.err = fmt.Errorf("writing %s CSV: %w", exp.ID, err)
		return o
	}
	diff := obs.Diff(before, obs.Snapshot())
	if err := checkCounters(diff); err != nil {
		o.err = fmt.Errorf("%s: %w", exp.ID, err)
		return o
	}
	man := &obs.Manifest{
		Experiment: exp.ID,
		Title:      exp.Title,
		CSV:        exp.ID + ".csv",
		CSVSHA256:  obs.SHA256Hex(o.csv),
		Config: obs.ManifestConfig{Slots: opts.Slots, Seed: opts.Seed, Quick: opts.Quick,
			Workers: parallel.Workers(opts.Workers), Engine: opts.Engine.String()},
		ConfigDigest:  digest,
		StartedAt:     start.UTC().Format(time.RFC3339),
		WallMillis:    time.Since(start).Milliseconds(),
		GoVersion:     obs.GoVersion(),
		BinaryVersion: obs.BinaryVersion(),
		Metrics:       obs.FilterPrefix(diff, "sim."),
		Process:       obs.FilterPrefix(diff, "cache.", "pool."),
		Trace:         traceInfo,
		Phases:        sp.Breakdown(),
	}
	if r, ok := coll.Report(); ok {
		man.Stats = &r
	}
	if err := man.Write(filepath.Join(dir, exp.ID+".manifest.json")); err != nil {
		o.err = err
	}
	return o
}

// readbackOp reads one experiment's trace back and checks it against
// its manifest: the trace hash, frame counts and metrics totals through
// trace.Replay (tracetool replay), then the QoM estimate rebuilt by
// trace.Stats/QoMReports (tracetool stats -manifest).
func readbackOp(parent *obs.Span, id, dir string) (o op) {
	o = op{id: id, kind: "readback"}
	start, cpu0 := time.Now(), cpuTime()
	sp := parent.Child(id + ".readback")
	defer func() {
		sp.End()
		o.wall, o.cpu = time.Since(start), cpuTime()-cpu0
	}()
	man, err := obs.ReadManifest(filepath.Join(dir, id+".manifest.json"))
	if err == nil && man.Trace == nil {
		err = fmt.Errorf("manifest %s has no trace block", id)
	}
	if err != nil {
		o.err = err
		return o
	}
	rs := sp.Child("trace.replay")
	data, err := os.ReadFile(filepath.Join(dir, man.Trace.File))
	if err == nil {
		err = checkReplay(man, data)
	}
	rs.End()
	if err != nil {
		o.err = fmt.Errorf("%s replay: %w", id, err)
		return o
	}
	ss := sp.Child("trace.stats")
	defer ss.End()
	if _, err := trace.Stats(bytes.NewReader(data)); err != nil {
		o.err = fmt.Errorf("%s trace stats: %w", id, err)
		return o
	}
	runs, err := trace.QoMReports(bytes.NewReader(data))
	if err == nil {
		err = checkQoM(man, trace.PoolQoM(runs))
	}
	if err != nil {
		o.err = fmt.Errorf("%s trace stats: %w", id, err)
	}
	return o
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

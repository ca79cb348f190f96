// Command experiments regenerates the paper's evaluation (every figure
// of Section VI) plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments -list
//	experiments -run fig3a,fig4b
//	experiments -run all -out results -quick
//	experiments -run all -out results -progress 5s -metrics-addr localhost:6060
//
// Each experiment prints a paper-style ASCII table; with -out set, a CSV
// per experiment is written into the directory together with a JSON run
// manifest (<id>.manifest.json) recording the configuration, code
// version, wall time, and the run-level metrics behind the figure.
// -progress renders a live jobs-done/ETA line to stderr; -metrics-addr
// serves /debug/vars, /metrics (Prometheus text format), and
// /debug/pprof while the sweep runs.
//
// Streaming statistics are on by default (-stats=false disables them):
// every experiment's manifest and journal line record the pooled QoM
// point estimate with its confidence interval, and /debug/runs shows
// the live CI band while the sweep runs. With -batch B and
// -target-rel-hw R, replications stop early once the QoM CI's relative
// half-width reaches R (at least -min-reps replications run first);
// the manifest's early_stop block records the realized counts.
//
// -trace additionally writes a slot-level binary trace (<id>.evtrace,
// hash-recorded in the manifest; verify with `tracetool replay`), and
// -flight-recorder N arms a crash-recorder ring of the last N records
// per sensor, dumped on invariant violations and at /debug/trace.
// Neither changes any output byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eventcap/internal/cliutil"
	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/sim"
	"eventcap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list experiment ids and exit")
		runID       = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		outDir      = fs.String("out", "", "directory to write CSV files and run manifests into (optional)")
		quick       = fs.Bool("quick", false, "reduced sweeps and shorter runs")
		slots       = fs.Int64("slots", 0, "override simulation length T (default 1e6; 1e5 with -quick)")
		seed        = fs.Uint64("seed", 1, "random seed")
		workers     = fs.Int("workers", 0, "worker pool size for sweep points (0 = one per CPU; results are identical for any value)")
		kernel      = fs.String("kernel", "auto", "simulation engine: auto (compiled kernel when eligible) | on (force kernel) | off (reference engine) | batch (force batch engine)")
		batch       = fs.Int("batch", 0, "run each simulation as B independent replications at seeds seed..seed+B-1 and aggregate (batch engine when eligible)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile to this file (a bare filename lands in -out)")
		memProf     = fs.String("memprofile", "", "write a heap profile to this file (a bare filename lands in -out)")
		progress    = fs.Duration("progress", 0, "print a live progress line to stderr at this interval (0 disables)")
		spansFlag   = fs.String("spans", "", "write the run's phase spans as Chrome trace-event JSON to this file (a bare filename lands in -out; open in chrome://tracing or Perfetto)")
		metricsAddr = fs.String("metrics-addr", "", "serve /debug/vars and /debug/pprof on this address while running (e.g. localhost:6060)")
		traceFlag   = fs.Bool("trace", false, "write a slot-level trace (<id>.evtrace) and record it in the manifest; requires -out")
		flightSize  = fs.Int("flight-recorder", 0, "arm a flight recorder keeping the last N slot records per sensor (0 disables); dumps appear at /debug/trace with -metrics-addr")
		statsFlag   = fs.Bool("stats", true, "collect streaming QoM statistics (point estimate and CI per experiment, recorded in manifests and the journal; never changes results)")
		targetRelHW = fs.Float64("target-rel-hw", 0, "stop batched replications early once the QoM CI's relative half-width reaches this target (requires -batch > 1; changes how many replications run)")
		minReps     = fs.Int("min-reps", 0, "minimum replications before -target-rel-hw may stop a run (default 2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := sim.ParseEngine(*kernel)
	if err != nil {
		return err
	}
	if *traceFlag && *outDir == "" {
		return fmt.Errorf("-trace requires -out (traces are written next to the CSVs)")
	}
	if *targetRelHW > 0 && *batch < 2 {
		return fmt.Errorf("-target-rel-hw requires -batch > 1 (the replication budget it stops within)")
	}
	if *minReps > 0 && *targetRelHW <= 0 {
		return fmt.Errorf("-min-reps only applies together with -target-rel-hw")
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var selected []experiments.Experiment
	if *runID == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			id = strings.TrimSpace(id)
			exp, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, exp)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments selected")
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
	}

	// Bare profile filenames land beside the manifests that point at them.
	cpuPath := cliutil.ResolveProfilePath(*cpuProf, *outDir)
	memPath := cliutil.ResolveProfilePath(*memProf, *outDir)
	spansPath := cliutil.ResolveProfilePath(*spansFlag, *outDir)
	stopProfiles, err := cliutil.StartProfiles(cpuPath, memPath)
	if err != nil {
		return err
	}
	profilesStopped := false
	defer func() {
		if !profilesStopped {
			stopProfiles()
		}
	}()

	var flight *trace.FlightRecorder
	if *flightSize > 0 {
		flight = trace.NewFlightRecorder(*flightSize)
		// Register before ServeMetrics builds its mux so /debug/trace is
		// live for the whole run.
		obs.HandleDebug("/debug/trace", flight.Handler())
	}

	if *metricsAddr != "" {
		bound, stopServe, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: serving /debug/vars and /debug/pprof/ on http://%s\n", bound)
		defer stopServe()
	}

	// One Progress across the whole invocation: the pool observer when
	// -progress asks for a live line, and the work-unit/ETA source for
	// the /debug/runs dashboard either way.
	prog := obs.NewProgress()
	if *progress > 0 {
		parallel.SetObserver(prog)
		ticker := time.NewTicker(*progress)
		stopTicker := make(chan struct{})
		go func() {
			for {
				select {
				case <-stopTicker:
					return
				case <-ticker.C:
					fmt.Fprintln(os.Stderr, prog.Line())
				}
			}
		}()
		defer func() {
			ticker.Stop()
			close(stopTicker)
			parallel.SetObserver(nil)
			done, total := prog.Done()
			fmt.Fprintf(os.Stderr, "progress: finished %d/%d jobs\n", done, total)
		}()
	}

	// The run journal appends one wide-event JSON line per experiment
	// beside the CSVs; the run registry feeds /debug/runs.
	var journal *obs.RunLog
	if *outDir != "" {
		journal, err = obs.OpenRunLog(filepath.Join(*outDir, "runs.jsonl"))
		if err != nil {
			return err
		}
		defer journal.Close()
	}
	var spanRoots []*obs.Span

	opts := experiments.Options{
		Slots: *slots, Seed: *seed, Quick: *quick, Workers: *workers,
		Engine: engine, Batch: *batch, Progress: prog,
		TargetRelHW: *targetRelHW, MinReps: *minReps,
	}
	for _, exp := range selected {
		before := obs.Snapshot()
		start := time.Now()
		params := manifestParams{
			slots:   *slots,
			seed:    *seed,
			quick:   *quick,
			workers: *workers,
			batch:   *batch,
			engine:  engine,
			start:   start,
			outDir:  *outDir,
			cpuProf: cpuPath,
			memProf: memPath,
		}
		// Workers are excluded from the digest: results are worker-
		// invariant, so two runs differing only in pool size share a
		// digest (and must share a CSV hash).
		digest := obs.DigestConfig(
			"experiment="+exp.ID,
			fmt.Sprintf("slots=%d", *slots),
			fmt.Sprintf("seed=%d", *seed),
			fmt.Sprintf("quick=%t", *quick),
			"engine="+engine.String(),
		)
		// Phase spans: the experiment's root span with a "run" child
		// around the driver (each simulation forks "sim.run" under it)
		// and a "write" child around the CSV write below. The registry
		// entry makes the run visible at /debug/runs while it executes.
		root := obs.BeginSpan(exp.ID)
		active := obs.DefaultRegistry.Begin(exp.ID, digest, prog, root)
		// One stats collector per experiment (the manifest scope): interim
		// reports stream to the registry's live view (dashboard + stats.*
		// gauges); the pooled estimate lands in the manifest and journal.
		var coll *experiments.StatsCollector
		if *statsFlag || *targetRelHW > 0 {
			coll = &experiments.StatsCollector{Live: active.Stats.Publish}
		}
		opts.Stats = coll
		// Attach the tracer for this experiment: a fresh trace file per
		// experiment (so each manifest hashes exactly its own runs), the
		// shared flight recorder, or both.
		var (
			tw *trace.Writer
			tf *os.File
		)
		if *traceFlag {
			tracePath := filepath.Join(*outDir, exp.ID+".evtrace")
			tf, err = os.Create(tracePath)
			if err != nil {
				return fmt.Errorf("creating trace file: %w", err)
			}
			tw = trace.NewWriter(tf)
		}
		if tw != nil || flight != nil {
			opts.Tracer = trace.New(tw, flight)
		}
		runSpan := root.Child("run")
		opts.Span = runSpan
		table, err := exp.Run(opts)
		runSpan.End()
		if err != nil {
			// The run error is primary; the partial trace is best-effort,
			// but the writer must still be closed ahead of the file or its
			// buffered frames are silently dropped.
			if tw != nil {
				_ = tw.Close()
			}
			if tf != nil {
				_ = tf.Close()
			}
			// Failed runs are journaled and completed too: the dashboard
			// and the journal must account for every run, not just the
			// successful ones.
			root.End()
			params.elapsed = time.Since(start)
			rec := runRecord(exp, digest, params, obs.Diff(before, obs.Snapshot()), root.Breakdown())
			rec.Status = "error"
			rec.Error = err.Error()
			if journal != nil {
				journal.Record(rec)
			}
			active.Complete(rec)
			return fmt.Errorf("running %s: %w", exp.ID, err)
		}
		elapsed := time.Since(start)
		params.elapsed = elapsed
		var traceInfo *obs.TraceInfo
		if tw != nil {
			if err := tw.Close(); err != nil {
				if tf != nil {
					_ = tf.Close()
				}
				return fmt.Errorf("%s trace: %w", exp.ID, err)
			}
		}
		if tf != nil {
			if err := tf.Close(); err != nil {
				return fmt.Errorf("%s trace: %w", exp.ID, err)
			}
		}
		if tw != nil {
			mode := "full"
			if flight != nil {
				mode = "full+flight"
			}
			c := tw.Counts()
			traceInfo = &obs.TraceInfo{
				File:    exp.ID + ".evtrace",
				SHA256:  tw.SHA256(),
				Mode:    mode,
				Runs:    c.Runs,
				Records: c.Records,
				Spans:   c.Spans,
			}
		}
		rounded := elapsed.Round(time.Millisecond)
		// The "timing:" prefix marks the one note allowed to vary between
		// runs; CSV output carries no notes, so it stays byte-identical
		// for a fixed seed at any worker count.
		table.Notes = append(table.Notes, fmt.Sprintf("timing: %v wall-clock with %d workers", rounded, parallel.Workers(*workers)))
		fmt.Fprintln(out, table.ASCII())
		fmt.Fprintf(out, "(%s finished in %v)\n\n", exp.ID, rounded)
		if coll != nil {
			if r, ok := coll.Report(); ok {
				if r.Level != 0 {
					fmt.Fprintf(out, "stats: qom %.6f ± %.6f (%.0f%% CI, rel %.4g, pooled over %d runs)\n",
						r.Mean, r.HalfWidth, 100*r.Level, r.RelHalfWidth, r.Count)
				} else {
					fmt.Fprintf(out, "stats: qom %.6f (pooled over %d runs, no interval)\n", r.Mean, r.Count)
				}
			}
			if d := coll.Decision(); d != nil {
				fmt.Fprintf(out, "stats: early stop settled at %d/%d replications (target rel HW %g, reached %.4g; %d run(s) converged early)\n",
					d.Reps, d.MaxReps, d.TargetRelHW, d.RelHalfWidth, coll.StoppedRuns())
			}
		}
		params.trace = traceInfo
		var rec obs.RunRecord
		if *outDir != "" {
			ws := root.Child("write")
			csv := []byte(table.CSV())
			path := filepath.Join(*outDir, exp.ID+".csv")
			if err := os.WriteFile(path, csv, 0o644); err != nil {
				ws.End()
				return fmt.Errorf("writing %s: %w", path, err)
			}
			ws.End()
			root.End()
			diff := obs.Diff(before, obs.Snapshot())
			man := manifestFor(exp, csv, diff, digest, params)
			man.Phases = root.Breakdown()
			if coll != nil {
				if r, ok := coll.Report(); ok {
					rp := r
					man.Stats = &rp
				}
				man.EarlyStop = earlyStopInfo(coll.Decision())
			}
			if journal != nil {
				man.Journal = filepath.Base(journal.Path())
			}
			manPath := filepath.Join(*outDir, exp.ID+".manifest.json")
			if err := man.Write(manPath); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
			fmt.Fprintf(out, "wrote %s\n\n", manPath)
			rec = runRecord(exp, digest, params, diff, man.Phases)
			rec.CSV = man.CSV
			rec.CSVSHA256 = man.CSVSHA256
		} else {
			root.End()
			rec = runRecord(exp, digest, params, obs.Diff(before, obs.Snapshot()), root.Breakdown())
		}
		if coll != nil {
			if r, ok := coll.Report(); ok {
				rec.QoMMean, rec.QoMHalfWidth = r.Mean, r.HalfWidth
			}
			if d := coll.Decision(); d != nil {
				rec.EarlyStopReps = d.Reps
			}
		}
		if journal != nil {
			if err := journal.Record(rec); err != nil {
				return fmt.Errorf("recording %s in run journal: %w", exp.ID, err)
			}
		}
		active.Complete(rec)
		spanRoots = append(spanRoots, root)
	}
	if spansPath != "" {
		sf, err := os.Create(spansPath)
		if err != nil {
			return fmt.Errorf("creating spans file: %w", err)
		}
		if err := obs.WriteChromeTrace(sf, spanRoots...); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return fmt.Errorf("writing spans file: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", spansPath)
	}
	profilesStopped = true
	return stopProfiles()
}

// runRecord assembles the journal/registry record for one experiment:
// the manifest's identity and configuration facts plus the engine
// attribution and event totals carved from the experiment's metrics
// diff.
func runRecord(exp experiments.Experiment, digest string, p manifestParams, diff map[string]float64, phases *obs.Phase) obs.RunRecord {
	used, fallbacks := obs.EngineCounts(diff)
	return obs.RunRecord{
		Experiment:   exp.ID,
		Title:        exp.Title,
		ConfigDigest: digest,
		Engine:       p.engine.String(),
		Seed:         p.seed,
		Slots:        p.slots,
		Batch:        p.batch,
		Workers:      parallel.Workers(p.workers),
		Quick:        p.quick,
		Status:       "ok",
		WallMillis:   p.elapsed.Milliseconds(),
		EnginesUsed:  used,
		Fallbacks:    fallbacks,
		Events:       int64(diff["sim.events"]),
		Captures:     int64(diff["sim.captures"]),
		Phases:       phases,
	}
}

// earlyStopInfo converts a sim.StopDecision into its manifest mirror
// (obs cannot import sim). Nil-safe.
func earlyStopInfo(d *sim.StopDecision) *obs.EarlyStopInfo {
	if d == nil {
		return nil
	}
	return &obs.EarlyStopInfo{
		TargetRelHW:  d.TargetRelHW,
		MinReps:      d.MinReps,
		MaxReps:      d.MaxReps,
		Reps:         d.Reps,
		RelHalfWidth: d.RelHalfWidth,
		Stopped:      d.Stopped,
	}
}

// manifestParams carries the per-invocation facts manifestFor records.
type manifestParams struct {
	slots   int64
	seed    uint64
	quick   bool
	workers int
	batch   int
	engine  sim.Engine
	start   time.Time
	elapsed time.Duration
	outDir  string
	cpuProf string
	memProf string
	trace   *obs.TraceInfo
}

// manifestFor assembles the JSON sidecar for one experiment's CSV. The
// metrics block is the experiment's own share of the process counters
// (the Snapshot diff around its Run call), carved by prefix into
// run-level ("sim.") and process-level ("cache.", "core.", "pool.") blocks.
func manifestFor(exp experiments.Experiment, csv []byte, diff map[string]float64, digest string, p manifestParams) *obs.Manifest {
	man := &obs.Manifest{
		Schema:     obs.ManifestSchema,
		Experiment: exp.ID,
		Title:      exp.Title,
		CSV:        exp.ID + ".csv",
		CSVSHA256:  obs.SHA256Hex(csv),
		Config: obs.ManifestConfig{
			Slots:   p.slots,
			Seed:    p.seed,
			Quick:   p.quick,
			Workers: parallel.Workers(p.workers),
			Engine:  p.engine.String(),
		},
		ConfigDigest:  digest,
		StartedAt:     p.start.UTC().Format(time.RFC3339),
		WallMillis:    p.elapsed.Milliseconds(),
		GoVersion:     obs.GoVersion(),
		BinaryVersion: obs.BinaryVersion(),
		Metrics:       obs.FilterPrefix(diff, "sim."),
		Process:       obs.FilterPrefix(diff, "cache.", "core.", "pool."),
		Trace:         p.trace,
	}
	addProfile := func(kind, path string) {
		if path == "" {
			return
		}
		if man.Profiles == nil {
			man.Profiles = make(map[string]string)
		}
		// Point at the sibling file by base name when the profile lives in
		// the output directory, else record the path as given.
		if filepath.Dir(path) == filepath.Clean(p.outDir) {
			path = filepath.Base(path)
		}
		man.Profiles[kind] = path
	}
	addProfile("cpu", p.cpuProf)
	addProfile("mem", p.memProf)
	return man
}

// Command simulate runs one event-capture simulation from flags: choose
// workload, recharge, policy, information model, number of sensors, and
// coordination mode; it prints the measured QoM and per-sensor stats.
//
// Usage:
//
//	simulate -dist weibull:40,3 -recharge bernoulli:0.5,1 -policy greedy -T 1000000
//	simulate -dist pareto:2,10 -recharge bernoulli:0.5,2 -policy clustering -info partial
//	simulate -dist weibull:40,3 -recharge bernoulli:0.1,1 -policy clustering -info partial -n 5 -mode roundrobin
//	simulate -dist markov:0.3,0.2 -recharge constant:1 -policy ebcw -info partial
//	simulate -dist weibull:40,3 -policy clustering -trace run.evtrace
//	simulate -dist weibull:40,3 -policy greedy -flight-recorder 256 -flight-dump dumps.json
//
// -trace writes a slot-level trace (internal/trace format) plus a
// <file>.manifest.json sidecar that cmd/tracetool's replay subcommand
// verifies. -flight-recorder keeps the last N slot records per sensor
// in memory and dumps them on invariant violations, sensor faults, and
// the first energy-denied miss; -flight-dump writes the collected dumps
// as JSON, and -metrics-addr serves them live at /debug/trace (plus the
// run dashboard at /debug/runs). -spans exports the run's phase spans
// as Chrome trace-event JSON for chrome://tracing or Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"eventcap/internal/cliutil"
	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/obs"
	"eventcap/internal/sim"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		distSpec   = fs.String("dist", "weibull:40,3", "inter-arrival distribution (name:params)")
		rechSpec   = fs.String("recharge", "bernoulli:0.5,1", "recharge process (name:params)")
		policy     = fs.String("policy", "greedy", "policy: greedy | clustering | refined | aggressive | periodic | ebcw")
		infoStr    = fs.String("info", "full", "information model: full | partial")
		n          = fs.Int("n", 1, "number of sensors")
		mode       = fs.String("mode", "roundrobin", "coordination for n>1: roundrobin | blocks | all")
		capK       = fs.Float64("k", 1000, "battery capacity K")
		slots      = fs.Int64("T", 1_000_000, "simulation length in slots")
		seed       = fs.Uint64("seed", 1, "random seed")
		delta1     = fs.Float64("delta1", 1, "sensing energy per active slot")
		delta2     = fs.Float64("delta2", 6, "extra energy per capture")
		theta1     = fs.Int("theta1", 3, "theta1 for the periodic policy")
		workers    = fs.Int("workers", 0, "worker pool size for the independent-sensor fast path (0 = one per CPU)")
		kernel     = fs.String("kernel", "auto", "simulation engine: auto (compiled kernel when eligible) | on (force kernel) | off (reference engine) | batch (force batch engine)")
		batch      = fs.Int("batch", 0, "run B independent replications at seeds seed..seed+B-1 and aggregate (batch engine when eligible, sequential runs otherwise)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file")
		metrics    = fs.Bool("metrics", false, "collect and print run metrics (miss decomposition, battery occupancy; never changes results)")
		mAddr      = fs.String("metrics-addr", "", "serve /debug/vars and /debug/pprof on this address while running (e.g. localhost:6060)")
		traceFile  = fs.String("trace", "", "write a slot-level trace to this file plus a .manifest.json sidecar (implies -metrics; never changes results)")
		spansFlag  = fs.String("spans", "", "write the run's phase spans as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto; never changes results)")
		flightSize = fs.Int("flight-recorder", 0, "arm a flight recorder keeping the last N slot records per sensor (0 disables)")
		flightDump = fs.String("flight-dump", "", "write flight-recorder dumps as JSON to this file (requires -flight-recorder)")
		statsFlag  = fs.Bool("stats", true, "collect and print streaming QoM statistics (confidence interval, battery quantiles; never changes results)")
		targetHW   = fs.Float64("target-rel-hw", 0, "stop batched replications early once the QoM CI's relative half-width reaches this target (requires -batch > 1; changes how many replications run)")
		minReps    = fs.Int("min-reps", 0, "minimum replications before -target-rel-hw may stop the run (default 2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := sim.ParseEngine(*kernel)
	if err != nil {
		return err
	}
	if *flightDump != "" && *flightSize <= 0 {
		return fmt.Errorf("-flight-dump requires -flight-recorder")
	}
	if *targetHW > 0 && *batch < 2 {
		return fmt.Errorf("-target-rel-hw requires -batch > 1 (the replication budget it stops within)")
	}
	if *minReps > 0 && *targetHW <= 0 {
		return fmt.Errorf("-min-reps only applies together with -target-rel-hw")
	}
	if *traceFile != "" {
		// The manifest sidecar records the run's metrics block; collect it.
		*metrics = true
	}
	stopProfiles, err := cliutil.StartProfiles(*cpuProf, *memProf)
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
		obs.HandleDebug("/debug/trace", flight.Handler())
	}
	if *mAddr != "" {
		bound, stopServe, err := obs.ServeMetrics(*mAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "simulate: serving /debug/vars and /debug/pprof/ on http://%s\n", bound)
		defer stopServe()
	}

	d, err := cliutil.ParseDist(*distSpec)
	if err != nil {
		return err
	}
	newRecharge, err := cliutil.ParseRecharge(*rechSpec)
	if err != nil {
		return err
	}
	p := core.Params{Delta1: *delta1, Delta2: *delta2}
	if err := p.Validate(); err != nil {
		return err
	}

	var info sim.Info
	switch *infoStr {
	case "full":
		info = sim.FullInfo
	case "partial":
		info = sim.PartialInfo
	default:
		return fmt.Errorf("unknown info model %q", *infoStr)
	}

	e := newRecharge().Mean()
	aggregate := float64(*n) * e

	cfg := sim.Config{
		Dist:        d,
		Params:      p,
		NewRecharge: newRecharge,
		N:           *n,
		BatteryCap:  *capK,
		Slots:       *slots,
		Seed:        *seed,
		Info:        info,
		Workers:     *workers,
		Engine:      engine,
		Metrics:     *metrics,
		Batch:       *batch,
	}
	switch *mode {
	case "roundrobin":
		cfg.Mode = sim.ModeRoundRobin
	case "all":
		cfg.Mode = sim.ModeAll
	case "blocks":
		cfg.Mode = sim.ModeBlocks // BlockLen set below for periodic
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *n == 1 {
		cfg.Mode = sim.ModeAll
	}

	var analytic float64
	switch *policy {
	case "greedy":
		fi, err := core.GreedyFI(d, aggregate, p)
		if err != nil {
			return err
		}
		analytic = fi.CaptureProb
		cfg.NewPolicy = func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy, Label: "greedy"} }
	case "clustering", "refined":
		pi, err := core.OptimizeClustering(d, aggregate, p, core.ClusteringOptions{})
		if err != nil {
			return err
		}
		vec, u := pi.Vector, pi.CaptureProb
		if *policy == "refined" {
			ref, err := core.RefineWindows(d, aggregate, p, pi, 2)
			if err != nil {
				return err
			}
			vec, u = ref.Vector, ref.CaptureProb
		}
		analytic = u
		cfg.NewPolicy = func(int) sim.Policy { return &sim.VectorPI{Vector: vec, Label: *policy} }
	case "aggressive":
		analytic = core.AggressiveU(d, e, p)
		cfg.NewPolicy = func(int) sim.Policy { return sim.Aggressive{} }
	case "periodic":
		theta2, err := core.PeriodicTheta2(*theta1, aggregate, d, p)
		if err != nil {
			return err
		}
		pe, err := sim.NewPeriodic(*theta1, theta2)
		if err != nil {
			return err
		}
		analytic = core.PeriodicU(*theta1, theta2)
		cfg.NewPolicy = func(int) sim.Policy { return pe }
		if cfg.Mode == sim.ModeBlocks {
			cfg.BlockLen = pe.Theta2
		}
	case "ebcw":
		mr, ok := d.(*dist.MarkovRenewal)
		if !ok {
			return fmt.Errorf("policy ebcw requires -dist markov:a,b")
		}
		eb, err := core.OptimizeEBCW(mr.A(), mr.B(), aggregate, p)
		if err != nil {
			return err
		}
		analytic = eb.CaptureU
		cfg.NewPolicy = func(int) sim.Policy { return sim.NewEBCW(eb) }
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if cfg.Mode == sim.ModeBlocks && cfg.BlockLen == 0 {
		return fmt.Errorf("mode blocks is only meaningful with -policy periodic")
	}

	var (
		tw *trace.Writer
		tf *os.File
	)
	if *traceFile != "" {
		tf, err = os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		tw = trace.NewWriter(tf)
	}
	if tw != nil || flight != nil {
		cfg.Tracer = trace.New(tw, flight)
	}

	// The phase span is always attached (spans are RNG-neutral and wrap
	// phases, not slots); the run registers on /debug/runs so a
	// -metrics-addr server shows it live, and -spans exports the tree.
	digest := obs.DigestConfig(
		"experiment=simulate",
		fmt.Sprintf("slots=%d", cfg.Slots),
		fmt.Sprintf("seed=%d", cfg.Seed),
		"engine="+engine.String(),
	)
	root := obs.BeginSpan("simulate")
	active := obs.DefaultRegistry.Begin("simulate", digest, nil, root)
	cfg.Span = root
	if *statsFlag || *targetHW > 0 {
		cfg.Stats = true
		// Interim reports feed the /debug/runs live view and the stats.*
		// gauges while the run executes.
		cfg.StatsSink = active.Stats.Publish
	}

	before := obs.Snapshot()
	start := time.Now()
	var (
		res *sim.Result
		dec *sim.StopDecision
	)
	if *targetHW > 0 {
		res, dec, err = sim.RunWithEarlyStop(cfg, sim.EarlyStopOptions{TargetRelHW: *targetHW, MinReps: *minReps})
	} else {
		res, err = sim.Run(cfg)
	}
	root.End()
	elapsed := time.Since(start)
	diff := obs.Diff(before, obs.Snapshot())
	rec := runRecord(cfg, engine, digest, elapsed, diff, root.Breakdown())
	if err != nil {
		rec.Status, rec.Error = "error", err.Error()
		active.Complete(rec)
		// The run error is primary; the partial trace is best-effort.
		if tw != nil {
			_ = tw.Close()
		}
		if tf != nil {
			_ = tf.Close()
		}
		return err
	}
	if res.Stats != nil {
		rec.QoMMean, rec.QoMHalfWidth = res.Stats.Mean, res.Stats.HalfWidth
	}
	if dec != nil {
		rec.EarlyStopReps = dec.Reps
	}
	active.Complete(rec)

	// Close the trace stream before any other output file is written:
	// Writer errors are sticky and only surface at Close, and an early
	// return from the spans write below must not leak the stream (or
	// silently drop its buffered frames).
	if tw != nil {
		if err := tw.Close(); err != nil {
			if tf != nil {
				_ = tf.Close()
			}
			return fmt.Errorf("trace: %w", err)
		}
	}
	if tf != nil {
		if err := tf.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if tw != nil {
		if err := writeTraceManifest(*traceFile, tw, flight != nil, cfg, engine, digest, start, elapsed, diff, root.Breakdown(), res.Stats, earlyStopInfo(dec)); err != nil {
			return err
		}
	}

	if *spansFlag != "" {
		sf, err := os.Create(*spansFlag)
		if err != nil {
			return fmt.Errorf("creating spans file: %w", err)
		}
		if err := obs.WriteChromeTrace(sf, root); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return fmt.Errorf("closing spans file: %w", err)
		}
	}
	if *flightDump != "" {
		data, err := json.MarshalIndent(flight.Dumps(), "", "  ")
		if err != nil {
			return fmt.Errorf("marshaling flight dumps: %w", err)
		}
		if err := os.WriteFile(*flightDump, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing flight dumps: %w", err)
		}
	}

	fmt.Fprintf(out, "workload   %s (mu=%.2f), recharge %s (e=%.4f/sensor), policy %s, info %s\n",
		d.Name(), d.Mean(), newRecharge().Name(), e, *policy, *infoStr)
	fmt.Fprintf(out, "sensors    N=%d, K=%g, T=%d slots\n", *n, *capK, *slots)
	if *batch > 1 {
		fmt.Fprintf(out, "batch      B=%d replications (seeds %d..%d), engine %s\n",
			*batch, *seed, *seed+uint64(*batch)-1, res.Engine)
	}
	fmt.Fprintf(out, "events     %d   captured %d\n", res.Events, res.Captures)
	fmt.Fprintf(out, "QoM        %.4f   (analytic, energy assumption: %.4f)\n", res.QoM, analytic)
	if s := res.Stats; s != nil {
		if s.Level != 0 {
			fmt.Fprintf(out, "stats      qom %.6f ± %.6f (%.0f%% CI, rel %.4g, %s, n=%d)\n",
				s.Mean, s.HalfWidth, 100*s.Level, s.RelHalfWidth, s.Method, s.Count)
		} else {
			fmt.Fprintf(out, "stats      qom %.6f (%s, no interval)\n", s.Mean, s.Method)
		}
		if b := s.Battery; b != nil {
			fmt.Fprintf(out, "stats      battery mean %.1f%% of K, p10/p50/p90 %.1f%%/%.1f%%/%.1f%% (%d samples)\n",
				100*b.Mean, 100*b.P10, 100*b.P50, 100*b.P90, b.Count)
		}
	}
	if dec != nil {
		fmt.Fprintf(out, "stats      early stop at %d/%d replications (target rel HW %g, reached %.4g, stopped=%t)\n",
			dec.Reps, dec.MaxReps, dec.TargetRelHW, dec.RelHalfWidth, dec.Stopped)
	}
	if *n > 1 {
		fmt.Fprintf(out, "balance    load imbalance (max-min)/mean activations = %.4f\n", res.LoadImbalance())
	}
	if m := res.Metrics; m != nil {
		fmt.Fprintf(out, "engine     %s\n", res.Engine)
		fmt.Fprintf(out, "misses     asleep=%d noenergy=%d (captures %d + misses %d = events %d)\n",
			m.MissAsleep, m.MissNoEnergy, res.Captures, m.MissAsleep+m.MissNoEnergy, res.Events)
		fmt.Fprintf(out, "energy     wasted activations=%d, outage slots=%d/%d observed, mean battery %.1f%% of K\n",
			m.WastedActivations, m.EnergyOutageSlots, m.ObservedSlots, 100*m.MeanBatteryFrac())
		if m.KernelRuns > 0 {
			fmt.Fprintf(out, "kernel     %d sleep runs fast-forwarded %d slots (%.1f%% of T)\n",
				m.KernelRuns, m.KernelSlotsFastForwarded, 100*float64(m.KernelSlotsFastForwarded)/float64(res.Slots))
		}
	}
	if tw != nil {
		c := tw.Counts()
		fmt.Fprintf(out, "trace      %s: %d records, %d spans, %d bytes (manifest %s)\n",
			*traceFile, c.Records, c.Spans, c.Bytes, *traceFile+".manifest.json")
	}
	if flight != nil && *flightDump != "" {
		fmt.Fprintf(out, "flight     %d dump(s) written to %s\n", flight.TotalDumps(), *flightDump)
	}
	// A batch run carries one stats row per replication; listing 10^5 of
	// them would drown the summary, so show only the first few.
	sensors := res.Sensors
	if *batch > 1 && len(sensors) > 4 {
		sensors = sensors[:4]
	}
	for i, s := range sensors {
		fmt.Fprintf(out, "sensor %-2d  activations=%d captures=%d denied=%d energyUsed=%.0f battery=%.1f\n",
			i+1, s.Activations, s.Captures, s.Denied, s.EnergyConsumed, s.FinalBattery)
	}
	if len(sensors) < len(res.Sensors) {
		fmt.Fprintf(out, "           ... %d more replications elided\n", len(res.Sensors)-len(sensors))
	}
	profilesStopped = true
	return stopProfiles()
}

// runRecord assembles the run's registry record: identity, engine
// attribution, event totals, and the phase breakdown. Status starts
// "ok"; the error path overwrites it.
func runRecord(cfg sim.Config, engine sim.Engine, digest string, elapsed time.Duration, diff map[string]float64, phases *obs.Phase) obs.RunRecord {
	used, fallbacks := obs.EngineCounts(diff)
	return obs.RunRecord{
		Experiment:   "simulate",
		ConfigDigest: digest,
		Engine:       engine.String(),
		Seed:         cfg.Seed,
		Slots:        cfg.Slots,
		Batch:        cfg.Batch,
		Workers:      cfg.Workers,
		Status:       "ok",
		WallMillis:   elapsed.Milliseconds(),
		EnginesUsed:  used,
		Fallbacks:    fallbacks,
		Events:       int64(diff["sim.events"]),
		Captures:     int64(diff["sim.captures"]),
		Phases:       phases,
	}
}

// writeTraceManifest writes the <trace>.manifest.json sidecar tying the
// trace bytes to the run's configuration, metrics, and phase breakdown,
// in the same schema cmd/experiments uses, so cmd/tracetool replay
// verifies simulate traces too.
func writeTraceManifest(tracePath string, tw *trace.Writer, withFlight bool, cfg sim.Config, engine sim.Engine, digest string, start time.Time, elapsed time.Duration, diff map[string]float64, phases *obs.Phase, st *stats.Report, early *obs.EarlyStopInfo) error {
	mode := "full"
	if withFlight {
		mode = "full+flight"
	}
	c := tw.Counts()
	man := &obs.Manifest{
		Experiment: "simulate",
		Config: obs.ManifestConfig{
			Slots:   cfg.Slots,
			Seed:    cfg.Seed,
			Workers: cfg.Workers,
			Engine:  engine.String(),
		},
		ConfigDigest:  digest,
		StartedAt:     start.UTC().Format(time.RFC3339),
		WallMillis:    elapsed.Milliseconds(),
		GoVersion:     obs.GoVersion(),
		BinaryVersion: obs.BinaryVersion(),
		Metrics:       obs.FilterPrefix(diff, "sim."),
		Process:       obs.FilterPrefix(diff, "cache.", "core.", "pool."),
		Trace: &obs.TraceInfo{
			// The sidecar sits next to the trace, so the base name keeps
			// the pair relocatable.
			File:    filepath.Base(tracePath),
			SHA256:  tw.SHA256(),
			Mode:    mode,
			Runs:    c.Runs,
			Records: c.Records,
			Spans:   c.Spans,
		},
		Phases:    phases,
		Stats:     st,
		EarlyStop: early,
	}
	return man.Write(tracePath + ".manifest.json")
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

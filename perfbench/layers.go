package main

import (
	"math"
	"runtime"
	"strings"

	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// profiledPackages are the modules whose CPU the profile reports, in
// table order: the policy solve and its math first, then the engines.
var profiledPackages = []string{
	"core", "renewal", "dist", "numeric", "mdp",
	"sim", "energy", "rng", "stats", "parallel", "experiments", "trace", "obs",
}

// simSpans are the engine phases under each "sim.run" span, reported
// as sim.compile_s and sim.exec_s.<engine>. exec.batch_fallback
// includes its replication 0, whose own compile/exec spans nest inside
// it and are counted under their names too.
var simSpans = []struct{ span, metric string }{
	{"compile", "sim.compile_s"},
	{"exec.kernel", "sim.exec_s.kernel"},
	{"exec.reference", "sim.exec_s.reference"},
	{"exec.independent", "sim.exec_s.independent"},
	{"exec.batch", "sim.exec_s.batch"},
	{"exec.batch_fallback", "sim.exec_s.batch_fallback"},
}

type runtimeMemSample struct {
	totalAlloc uint64
	numGC      uint32
}

func readMem() runtimeMemSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMemSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// phaseSeconds sums, over the subtree, the wall time of every phase
// with the given name. Phases merge concurrent same-named forks, so
// the sum is lane-seconds.
func phaseSeconds(ph *obs.Phase, name string) float64 {
	if ph == nil {
		return 0
	}
	s := 0.0
	if ph.Name == name {
		s += float64(ph.WallMicros) / 1e6
	}
	for _, c := range ph.Phases {
		s += phaseSeconds(c, name)
	}
	return s
}

// perLayer splits the traced pass t by layer. u is the untraced pass
// of the same run (the base of tracing_overhead), prof the traced
// pass's CPU profile, and errRate the run's failed/attempted.
func perLayer(w workload, t, u *pass, prof profile, errRate float64) []metric {
	cpu := prof.cpu
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	// Span-derived engine times are lane-seconds divided by the pool
	// width, so they compare with wall time. A traced workload runs on
	// one worker (experiments.Options.Tracer forces it).
	workers := float64(parallel.Workers(0))
	if w.traced {
		workers = 1
	}
	wall := t.wall.Seconds()
	tree := t.root.Breakdown()
	opRun := make(map[string]float64)
	for _, ph := range tree.Phases {
		opRun[ph.Name] = phaseSeconds(ph, "run")
	}
	for _, id := range experiments.IDs() {
		add("experiments.op_s."+id, "s", opRun[id])
	}

	var profiled float64
	for _, v := range cpu {
		profiled += v
	}
	for _, pkg := range profiledPackages {
		add(pkg+".cpu_s", "s", cpu[pkg])
	}
	add("perfbench.cpu_s", "s", cpu["harness"])
	add("profile.cpu_s", "s", profiled)

	add("core.policy_cache.hits", "count", t.diff["cache.policy.hits"])
	add("core.policy_cache.misses", "count", t.diff["cache.policy.misses"])

	busy := phaseSeconds(tree, "sim.run") / workers
	add("sim.busy_s", "s", busy)
	for _, s := range simSpans {
		add(s.metric, "s", phaseSeconds(tree, s.span)/workers)
	}
	var fallbacks float64
	for k, v := range t.diff {
		if strings.HasPrefix(k, "sim.engine.fallback.") {
			fallbacks += v
		}
	}
	add("sim.slots", "count", float64(t.slots))
	add("sim.ff_slots", "count", t.diff["sim.kernel.ff_slots"])
	add("sim.fallbacks", "count", fallbacks)
	add("sim.slots_per_busy_s", "1/s", ratio(float64(t.slots), busy))

	add("parallel.jobs", "count", t.diff["pool.jobs.done"])
	add("parallel.utilization", "ratio", ratio(t.diff["pool.latency.sum_ns"]/1e9, wall*workers))

	traceMB := t.diff["trace.bytes"] / (1 << 20)
	closing, write := phaseSeconds(tree, "trace.close"), phaseSeconds(tree, "write")
	replay, stats := phaseSeconds(tree, "trace.replay"), phaseSeconds(tree, "trace.stats")
	add("trace.bytes", "B", t.diff["trace.bytes"])
	add("trace.records", "count", t.diff["trace.records"])
	add("trace.close_s", "s", closing)
	add("trace.replay_s", "s", replay)
	add("trace.stats_s", "s", stats)
	add("trace.read_mb_per_s", "MB/s", ratio(traceMB, replay+stats))
	add("obs.write_s", "s", write)

	add("runtime.alloc_mb", "MB", float64(t.mem[1].totalAlloc-t.mem[0].totalAlloc)/(1<<20))
	add("runtime.gc_cycles", "count", float64(t.mem[1].numGC-t.mem[0].numGC))
	add("runtime.gc_cpu_s", "s", cpu["runtime"])
	add("runtime.peak_rss_mb", "MB", peakRSSMB())

	// unattributed_s is the traced wall that no layer claims. The span
	// layers claim their wall time; the layers with no span (the policy
	// solve and its math, the drivers, the pool, garbage collection)
	// claim their CPU outside every spanned layer, spread over the
	// workers. What is left is time the workers sat idle or off-CPU.
	spanned := busy + closing + replay + stats + write
	add("traced_wall_s", "s", wall)
	add("unattributed_s", "s", math.Max(0, wall-spanned-prof.unspanned/workers))
	add("tracing_overhead", "ratio", wall/u.wall.Seconds()-1)
	add("error_rate", "ratio", errRate)
	return out
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/trace"
)

// Engine selects the simulation engine.
type Engine int

const (
	// EngineAuto (the default) uses the compiled kernel whenever the
	// configuration is eligible and the reference engine otherwise.
	EngineAuto Engine = iota
	// EngineReference forces the interpreted per-slot engine.
	EngineReference
	// EngineKernel forces the compiled kernel; Run fails when the
	// configuration is ineligible.
	EngineKernel
	// EngineBatch forces the mega-batch engine (Config.Batch replications
	// of a compiled single-sensor configuration in one call); Run fails
	// when the configuration is ineligible. EngineAuto picks it on its own
	// whenever Batch > 1 and the configuration compiles.
	EngineBatch
)

// ParseEngine maps the -kernel flag values onto engines.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "on":
		return EngineKernel, nil
	case "off":
		return EngineReference, nil
	case "batch":
		return EngineBatch, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want auto, on, off, or batch)", s)
}

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineReference:
		return "reference"
	case EngineKernel:
		return "kernel"
	case EngineBatch:
		return "batch"
	default:
		return "auto"
	}
}

// StateKind identifies which scalar drives a compiled policy's activation
// probability. The kernel fast-forwards differently per kind because each
// state evolves differently across a sleep run.
type StateKind int

const (
	// StateSinceEvent is the full-information state h_i = slots since the
	// last event. It resets when an event occurs — even one the sensor
	// sleeps through — so a sleep run ends at the next event slot.
	StateSinceEvent StateKind = iota + 1
	// StateSinceCapture is the partial-information state f_i = slots since
	// the last capture. A sleeping sensor cannot capture, so the state
	// ticks up deterministically across any sleep run; events occurring
	// inside the run are drained in one batch.
	StateSinceCapture
	// StateSlotPhase is the absolute slot phase (t-1) mod Modulus + 1 used
	// by the periodic baseline; it too is untouched by sleeping.
	StateSlotPhase
)

// CompiledPolicy is a stationary policy lowered to a dense activation
// table over one of the supported state kinds.
type CompiledPolicy struct {
	Table *core.ActivationTable
	State StateKind
	// Modulus is the phase period for StateSlotPhase (ignored otherwise).
	Modulus int
}

// Compilable is implemented by policies the kernel can execute. A
// compilable policy must be stateless at runtime: ActivationProb may
// depend only on the declared state kind, and Observe/Reset must be
// no-ops, because the kernel never delivers outcomes for skipped slots.
type Compilable interface {
	Policy
	Compile() (CompiledPolicy, error)
}

// prepareRunLength is the sleep-run length hint handed to
// FastForwardPreparer recharges at compile time: long enough to cover the
// inter-arrival gaps of every paper workload, small enough that the
// precomputed tables stay in cache.
const prepareRunLength = 128

// newPreparedRecharge builds one sensor's recharge process for a compiled
// engine, preparing its fast-forward tables when it keeps any.
func newPreparedRecharge(cfg *Config) energy.Recharge {
	rech := cfg.NewRecharge()
	if prep, ok := rech.(energy.FastForwardPreparer); ok {
		prep.PrepareFastForward(prepareRunLength)
	}
	return rech
}

// fallback is a declined fast-engine dispatch: a fixed machine slug
// keying one of the sim.engine.fallback.* counters, plus the
// human-readable reason used in forced-engine errors. The slug set is
// closed — every compile reject below maps onto exactly one counter, so
// production runs that land on an interpreted path are diagnosable from
// the metrics alone.
type fallback struct {
	slug   string
	reason string
}

// record counts the decline. Run calls it only on EngineAuto dispatch
// decisions — a forced engine either runs or errors, and neither is a
// fallback.
func (f fallback) record() {
	switch f.slug {
	case "mode":
		obs.SimFallbackMode.Inc()
	case "trace":
		obs.SimFallbackTrace.Inc()
	case "fault":
		obs.SimFallbackFault.Inc()
	case "policy":
		obs.SimFallbackPolicy.Inc()
	case "info":
		obs.SimFallbackInfo.Inc()
	case "tracer":
		obs.SimFallbackTracer.Inc()
	case "mismatch":
		obs.SimFallbackMismatch.Inc()
	}
}

// kernelPlan is a validated, instantiated kernel configuration: one
// shared activation table plus one policy and one prepared recharge per
// sensor (n == 1 for a single sensor, n > 1 for a ModeRoundRobin fleet).
type kernelPlan struct {
	table   *core.ActivationTable
	state   StateKind
	modulus int64

	n         int
	policies  []Policy
	recharges []energy.Recharge
}

// samePlan reports whether two compiled policies lowered to the same
// table, bit for bit. Round-robin sensors share one activation table, so
// every sensor must compile identically — equal-in-law is not enough for
// the kernel's byte-identity contract.
func samePlan(a, b CompiledPolicy) bool {
	if a.State != b.State || a.Modulus != b.Modulus ||
		len(a.Table.Prob) != len(b.Table.Prob) {
		return false
	}
	if math.Float64bits(a.Table.Tail) != math.Float64bits(b.Table.Tail) {
		return false
	}
	for i := range a.Table.Prob {
		if math.Float64bits(a.Table.Prob[i]) != math.Float64bits(b.Table.Prob[i]) {
			return false
		}
	}
	return true
}

// compileKernel probes whether cfg (already validated) can run on the
// kernel. It returns the plan, or nil and the fallback (counter slug +
// human-readable reason). Checks are ordered cheapest first; factories
// only run when the structural checks pass.
//
// Multi-sensor configurations compile when the mode is ModeRoundRobin:
// the in-charge sensor's decision state (h, f, or slot phase) is shared
// across the fleet — h and the broadcast f reset on global occurrences,
// the phase is absolute — so one activation table covers every sensor,
// provided all N policies compile to identical tables.
func compileKernel(cfg *Config) (*kernelPlan, fallback) {
	if cfg.N != 1 && cfg.Mode != ModeRoundRobin {
		return nil, fallback{"mode", fmt.Sprintf("%d sensors without round-robin coordination", cfg.N)}
	}
	if cfg.Trace != nil {
		return nil, fallback{"trace", "per-slot trace requested"}
	}
	if len(cfg.FailAt) > 0 {
		return nil, fallback{"fault", "fault injection requested"}
	}
	if cfg.N != 1 && cfg.Tracer != nil {
		// The multi-sensor kernel carries no span/record instrumentation;
		// traced fleet runs stay on the reference engine.
		return nil, fallback{"tracer", "slot tracing of a multi-sensor run"}
	}
	pol := cfg.NewPolicy(0)
	comp, ok := pol.(Compilable)
	if !ok {
		return nil, fallback{"policy", fmt.Sprintf("policy %s is not compilable", pol.Name())}
	}
	cp, err := comp.Compile()
	if err != nil {
		return nil, fallback{"policy", err.Error()}
	}
	if cp.Table == nil || cp.State == 0 {
		return nil, fallback{"policy", fmt.Sprintf("policy %s compiled to an incomplete plan", pol.Name())}
	}
	if cp.State == StateSinceEvent && cfg.Info != FullInfo {
		return nil, fallback{"info", fmt.Sprintf("policy %s needs full information", pol.Name())}
	}
	if cp.State == StateSlotPhase && cp.Modulus < 1 {
		return nil, fallback{"policy", fmt.Sprintf("policy %s compiled with modulus %d", pol.Name(), cp.Modulus)}
	}
	plan := &kernelPlan{
		table:     cp.Table,
		state:     cp.State,
		modulus:   int64(cp.Modulus),
		n:         cfg.N,
		policies:  make([]Policy, cfg.N),
		recharges: make([]energy.Recharge, cfg.N),
	}
	plan.policies[0] = pol
	for s := 1; s < cfg.N; s++ {
		ps := cfg.NewPolicy(s)
		cs, ok := ps.(Compilable)
		if !ok {
			return nil, fallback{"mismatch", fmt.Sprintf("sensor %d policy %s is not compilable", s, ps.Name())}
		}
		cps, err := cs.Compile()
		if err != nil {
			return nil, fallback{"mismatch", fmt.Sprintf("sensor %d: %v", s, err)}
		}
		if !samePlan(cp, cps) {
			return nil, fallback{"mismatch", fmt.Sprintf("sensor %d compiles to a different table than sensor 0", s)}
		}
		plan.policies[s] = ps
	}
	for s := 0; s < cfg.N; s++ {
		plan.recharges[s] = newPreparedRecharge(cfg)
	}
	return plan, fallback{}
}

// runObservers is what one execution of a compiled slot loop reports to
// beyond its counts and SensorStats. A batch replication carries at most
// Metrics, with battery sampling on replication 0 only; a single run
// carries every observer its Config asks for. All of them are
// RNG-neutral: the loops consume their streams identically with any
// combination attached.
type runObservers struct {
	m *Metrics
	// sample turns on the end-of-slot battery-occupancy sample of sensor
	// 0 on every batterySampleStride-th awake slot, into m and probe.
	sample bool
	// probe receives the per-event QoM feed (single runs only; the batch
	// engine feeds its probe per replication after the join).
	probe *StatsProbe
	// tracer receives slot records and one span per sleep run (single
	// sensor only; compileKernel keeps traced fleets on the reference
	// engine).
	tracer *trace.Tracer
}

// runCompiled executes a compiled single run: the shape's batch worker
// (single sensor or round-robin fleet) runs once, as replication 0 at
// cfg.Seed, with every per-run observer attached. The worker reproduces
// the reference engine's RNG stream layout (event Split(1), decision
// Split(2), recharge Split(100+s)) and its draw-consumption pattern —
// zero-probability slots consume no decision draws in either engine — so
// under any recharge but Bernoulli (deterministic processes and the
// per-slot stepped ClippedGaussian and OnOff) the Result is
// byte-identical to the reference; under Bernoulli, sleep runs draw the
// delivery count in one binomial sample and results agree in law (see
// energy.Recharge).
func runCompiled(cfg Config, plan *kernelPlan) (*Result, error) {
	ex := cfg.Span.Child("exec.kernel")
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(plan.n))
	defer cfg.Progress.FinishWork(cfg.Slots * int64(plan.n))
	// A single run never batches awake runs, so the batch-only one-run
	// lengths are never read and the table is not extended with them.
	bp := &batchPlan{kernel: plan, table: &core.BatchTable{ActivationTable: plan.table}}
	w, err := newBatchRunner(&cfg, bp, true)
	if err != nil {
		return nil, err
	}
	for _, p := range plan.policies {
		p.Reset()
	}
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, plan.n), Engine: EngineKernel}
	o := runObservers{probe: newStatsProbe(&cfg), tracer: cfg.Tracer}
	if cfg.Metrics {
		o.m = &Metrics{}
		res.Metrics = o.m
	}
	o.sample = o.m != nil || o.probe != nil
	res.Events, res.Captures = w.simulate(&cfg, bp, 0, res.Sensors, o)
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	recordEngine(res.Engine)
	if o.m != nil {
		o.m.publish(res)
	}
	o.probe.finish(res)
	return res, nil
}

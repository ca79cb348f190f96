// Package sim is the slotted discrete-event simulator that measures the
// practical QoM U_K(π) of activation policies: real batteries of capacity
// K, stochastic recharge, and full- or partial-information observation —
// exactly the setting of the paper's Section VI, including the
// multi-sensor coordination schemes of Section V.
//
// The per-slot sequence follows the paper's Figure 1: recharge completes,
// the sensor(s) decide, then the event (if any) occurs.
package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/rng"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

// Info selects the observation model.
type Info int

// Observation models (Section III-B).
const (
	// FullInfo: every sensor learns after the fact whether an event
	// occurred in each slot, active or not.
	FullInfo Info = iota + 1
	// PartialInfo: a sensor learns about an event only by being active
	// in its slot (coordinated modes broadcast captures).
	PartialInfo
)

// Mode selects how multiple sensors share the work.
type Mode int

// Coordination modes (Section V and VI-B).
const (
	// ModeAll runs every sensor in every slot, independently (the
	// uncoordinated baseline of Section V's opening).
	ModeAll Mode = iota + 1
	// ModeRoundRobin puts sensor s in charge of slots t = kN + s; all
	// others stay inactive (M-FI / M-PI and the multi-sensor aggressive
	// baseline).
	ModeRoundRobin
	// ModeBlocks rotates charge in blocks of BlockLen consecutive slots
	// (the multi-sensor periodic baseline: each sensor runs θ1-of-θ2
	// within its own block).
	ModeBlocks
)

// SlotState is what a policy may observe when deciding.
type SlotState struct {
	// Slot is the 1-based absolute slot number.
	Slot int64
	// SinceEvent is the full-information state h_i: slots since the last
	// event occurrence. It is -1 under PartialInfo.
	SinceEvent int
	// SinceCapture is the partial-information state f_i: slots since the
	// last captured event (shared via broadcast in coordinated modes,
	// per-sensor otherwise).
	SinceCapture int
	// Battery is the deciding sensor's energy level after recharge.
	Battery float64
}

// Outcome reports a slot's result back to the policy that decided it.
type Outcome struct {
	// Active reports whether the sensor actually activated.
	Active bool
	// EventKnown reports whether the event indicator below is
	// trustworthy (always under FullInfo, only when active otherwise).
	EventKnown bool
	// Event reports the event occurrence (meaningful iff EventKnown).
	Event bool
	// Captured reports Active && Event.
	Captured bool
}

// Policy is a runtime activation policy. Implementations may be stateful
// (EBCW's last-observation memory); each sensor gets its own instance.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// ActivationProb returns the probability of choosing the active
	// action given the observable state. The engine enforces the energy
	// gate (B >= δ1+δ2) on top of it.
	ActivationProb(s SlotState) float64
	// Observe reports the slot's outcome (only for slots this sensor was
	// in charge of).
	Observe(o Outcome)
	// Reset restores initial state for a fresh run.
	Reset()
}

// TraceRecord is one slot of an optional execution trace.
type TraceRecord struct {
	Slot         int64
	InCharge     int // 0-based sensor index; -1 when all sensors decide
	Event        bool
	SinceEvent   int
	SinceCapture int
	Actions      []bool // per-sensor activation this slot
	Captured     bool
}

// SensorStats accumulates per-sensor accounting.
type SensorStats struct {
	Activations    int64
	Captures       int64
	Denied         int64 // activation decisions blocked by the energy gate
	EnergyConsumed float64
	OverflowLost   float64
	FinalBattery   float64
}

// Result is the outcome of a simulation run.
type Result struct {
	Slots    int64
	Events   int64
	Captures int64 // slots where at least one sensor captured
	// QoM is the capture probability U_K(π) of Eq. (1).
	QoM     float64
	Sensors []SensorStats
	// Engine records the engine that actually executed the run (the
	// reference engine or the compiled kernel) — under EngineAuto the
	// caller cannot know otherwise.
	Engine Engine
	// Metrics holds the run's observability counters when
	// Config.Metrics is set, nil otherwise.
	Metrics *Metrics
	// Stats holds the streaming-statistics report (QoM point estimate,
	// CI, battery summary — DESIGN.md §16) when Config.Stats or
	// Config.StatsSink is set, nil otherwise.
	Stats *stats.Report
}

// LoadImbalance returns (max - min)/mean of per-sensor activation counts:
// 0 is perfect balance (Section V-A's load-balancing concern). It returns
// 0 when no sensor activated.
func (r *Result) LoadImbalance() float64 {
	if len(r.Sensors) == 0 {
		return 0
	}
	minA, maxA, total := int64(math.MaxInt64), int64(0), int64(0)
	for _, s := range r.Sensors {
		if s.Activations < minA {
			minA = s.Activations
		}
		if s.Activations > maxA {
			maxA = s.Activations
		}
		total += s.Activations
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.Sensors))
	return float64(maxA-minA) / mean
}

// Config describes a simulation run. NewRecharge and NewPolicy are
// factories so each sensor owns independent (possibly stateful)
// instances.
type Config struct {
	Dist   dist.Interarrival
	Params core.Params

	// NewRecharge builds the recharge process for one sensor.
	NewRecharge func() energy.Recharge
	// NewPolicy builds the policy for sensor index s (0-based).
	NewPolicy func(s int) Policy

	// N is the number of sensors (default 1).
	N int
	// Mode is the coordination mode (default ModeAll).
	Mode Mode
	// BlockLen is the block size for ModeBlocks.
	BlockLen int

	// BatteryCap is K. InitialBattery defaults to K/2 when zero (the
	// paper's setting).
	BatteryCap     float64
	InitialBattery float64

	// Slots is the duration T.
	Slots int64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// Info is the observation model (default FullInfo).
	Info Info

	// Workers bounds the worker pool of the independent-sensor fast path
	// (ModeAll + PartialInfo + N > 1, no Trace), where
	// each sensor owns its own decision stream and evolves in isolation.
	// 0 means one worker per CPU; 1 forces sequential execution. Results
	// are identical for every value — the per-sensor decomposition, not
	// the worker count, fixes the random streams.
	Workers int

	// Trace, if set, receives every slot's record. Use only with small
	// Slots.
	Trace func(TraceRecord)

	// FailAt, if non-nil, maps a 0-based sensor index to the slot at
	// which that sensor dies permanently (stops deciding, recharging and
	// observing) — fault injection for resilience experiments. Failed
	// sensors keep their slot assignments in coordinated modes, which is
	// exactly the fragility being measured.
	FailAt map[int]int64

	// Metrics, when true, collects the per-run observability counters of
	// the Metrics struct into Result.Metrics and folds them into the
	// process-wide obs totals. Collection is RNG-neutral: it never
	// consumes a random draw, so outputs are byte-identical with it on
	// or off (asserted by TestMetricsDoNotChangeResults).
	Metrics bool

	// Tracer, when non-nil, receives a slot-level execution trace on
	// every engine: per-slot decision records, and on the compiled
	// kernel one compressed span per fast-forwarded sleep run. Tracing
	// is RNG-neutral like Metrics — it never consumes a random draw, so
	// results are byte-identical with it attached or not (asserted by
	// TestTracingDoesNotChangeResults). A full-trace writer serializes
	// the independent-sensor path onto one worker (results are
	// worker-invariant, so outputs do not change); a flight recorder
	// alone leaves the worker pool untouched. Unlike the legacy Trace
	// callback, a Tracer keeps kernel-eligible configurations on the
	// kernel.
	Tracer *trace.Tracer

	// Engine selects the simulation engine. The default, EngineAuto, runs
	// the compiled slot-skipping loop of the configuration's fleet shape
	// whenever it is eligible (compilable stateless policy, no legacy
	// Trace callback; see compileKernel and compileIndependent) and the
	// reference engine otherwise. See runCompiled for the equivalence contract.
	Engine Engine

	// Batch, when > 1, simulates that many statistically independent
	// replications of this (single-sensor) configuration in one call:
	// replication r reproduces the run this Config would produce at
	// Seed + r, and the Result aggregates all replications (summed
	// Events/Captures, pooled QoM, one SensorStats entry per
	// replication). Under EngineAuto an eligible configuration runs on
	// the mega-batch engine (see batch.go); otherwise — or under a forced
	// per-run engine — the replications run individually and are
	// aggregated. Batch <= 1 leaves the single-run semantics untouched.
	Batch int

	// BatchChunk overrides the batch engine's replications-per-chunk
	// sharding (0 = default). Chunks are the unit of worker parallelism
	// and of state reuse; results are byte-identical for every value —
	// replication streams derive from Seed + r alone, never from the
	// sharding.
	BatchChunk int

	// Span, when non-nil, is the parent span this run records its phase
	// timings under: a "compile" child around the engine probe, then one
	// "exec.<engine>" child around execution (with per-chunk forks and
	// an aggregation child on the batch engine). Spans wrap phases,
	// never the slot loop, and are RNG-neutral like Metrics and Tracer —
	// results are byte-identical with or without one attached (asserted
	// by TestSpansDoNotChangeResults).
	Span *obs.Span

	// Progress, when non-nil, receives slot-unit work completions
	// (obs.Progress.FinishWork) at engine phase boundaries — per batch
	// chunk, per fleet sensor, per run — so a live progress line moves
	// inside long runs. RNG-neutral; reporting granularity never touches
	// a random stream.
	Progress *obs.Progress

	// Stats, when true, attaches the streaming statistics probe
	// (DESIGN.md §16): online QoM batch means with a confidence
	// interval, per-replication samples on the batch engines, and a
	// battery-occupancy summary, into Result.Stats. RNG-neutral under
	// the same contract as Metrics — results are byte-identical with
	// the probe on or off (asserted by TestStatsDoNotChangeResults).
	Stats bool

	// StatsSink, when non-nil, receives interim streaming reports
	// during the run (every statsPublishStride QoM observations) and
	// the final one; it implies the probe even when Stats is false.
	// Called synchronously from the engine's coordinating goroutine.
	StatsSink func(stats.Report)
}

func (c *Config) validate() error {
	if c.Dist == nil {
		return fmt.Errorf("sim: Config.Dist is required")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.NewRecharge == nil {
		return fmt.Errorf("sim: Config.NewRecharge is required")
	}
	if c.NewPolicy == nil {
		return fmt.Errorf("sim: Config.NewPolicy is required")
	}
	if c.N == 0 {
		c.N = 1
	}
	if c.N < 1 {
		return fmt.Errorf("sim: N must be >= 1, got %d", c.N)
	}
	if c.Mode == 0 {
		c.Mode = ModeAll
	}
	if c.Mode == ModeBlocks && c.BlockLen < 1 {
		return fmt.Errorf("sim: ModeBlocks requires BlockLen >= 1")
	}
	if !(c.BatteryCap > 0) {
		return fmt.Errorf("sim: BatteryCap must be positive, got %g", c.BatteryCap)
	}
	if c.InitialBattery == 0 {
		c.InitialBattery = c.BatteryCap / 2
	}
	if c.Slots < 1 {
		return fmt.Errorf("sim: Slots must be >= 1, got %d", c.Slots)
	}
	if c.Info == 0 {
		c.Info = FullInfo
	}
	if c.Batch < 0 {
		return fmt.Errorf("sim: Batch must be >= 0, got %d", c.Batch)
	}
	if c.BatchChunk < 0 {
		return fmt.Errorf("sim: BatchChunk must be >= 0, got %d", c.BatchChunk)
	}
	return nil
}

// inCharge returns the 0-based sensor responsible for slot t, or -1 when
// all sensors decide (ModeAll).
func (c *Config) inCharge(t int64) int {
	switch c.Mode {
	case ModeRoundRobin:
		return int((t - 1) % int64(c.N))
	case ModeBlocks:
		block := (t - 1) / int64(c.BlockLen)
		return int(block % int64(c.N))
	default:
		return -1
	}
}

// independentSensors reports whether every sensor's trajectory is fully
// decoupled from the others': under ModeAll + PartialInfo each sensor
// sees only its own capture history, so once decision randomness is
// per-sensor the simulations can run in any order (or concurrently).
// The legacy Trace callback needs the interleaved per-slot view, so it
// stays on the sequential engine.
func (c *Config) independentSensors() bool {
	return c.Mode == ModeAll && c.Info == PartialInfo && c.N > 1 && c.Trace == nil
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Each engine probe below runs under a "compile" child span; a probe
	// that declines counts the structural reason on the span, mirroring
	// the sim.engine.fallback.* counters.
	if cfg.Engine == EngineBatch {
		csp := cfg.Span.Child("compile")
		plan, fb := compileBatch(&cfg, csp)
		csp.End()
		if plan == nil {
			return nil, fmt.Errorf("sim: batch engine unavailable: %s", fb.reason)
		}
		return runBatch(cfg, plan)
	}
	if cfg.Batch > 1 {
		if cfg.Engine == EngineAuto {
			csp := cfg.Span.Child("compile")
			plan, fb := compileBatch(&cfg, csp)
			if plan != nil {
				csp.End()
				return runBatch(cfg, plan)
			}
			// The per-replication fallback runs may record further kernel
			// declines below; this one attributes the batch decline itself.
			csp.Count("fallback."+fb.slug, 1)
			csp.End()
			fb.record()
		}
		return runBatchFallback(cfg)
	}
	switch cfg.Engine {
	case EngineKernel:
		csp := cfg.Span.Child("compile")
		plan, fb := compileKernel(&cfg)
		if plan != nil {
			csp.End()
			return runCompiled(cfg, plan)
		}
		if cfg.independentSensors() {
			ip, ifb := compileIndependent(&cfg)
			csp.End()
			if ip != nil {
				return runIndependent(cfg, ip)
			}
			return nil, fmt.Errorf("sim: kernel engine unavailable: %s", ifb.reason)
		}
		csp.End()
		return nil, fmt.Errorf("sim: kernel engine unavailable: %s", fb.reason)
	case EngineReference:
		// fall through to the interpreted paths below
	default: // EngineAuto
		csp := cfg.Span.Child("compile")
		plan, fb := compileKernel(&cfg)
		if plan != nil {
			csp.End()
			return runCompiled(cfg, plan)
		}
		if cfg.independentSensors() {
			// Decoupled sensors get a second chance on the per-sensor
			// compiled loop before the interpreted one; record the more
			// specific of the two decline reasons.
			ip, ifb := compileIndependent(&cfg)
			if ip != nil {
				csp.End()
				return runIndependent(cfg, ip)
			}
			csp.Count("fallback."+ifb.slug, 1)
			csp.End()
			ifb.record()
		} else {
			csp.Count("fallback."+fb.slug, 1)
			csp.End()
			fb.record()
		}
	}
	if cfg.independentSensors() {
		return runIndependent(cfg, nil)
	}
	ex := cfg.Span.Child("exec.reference")
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(cfg.N))
	defer cfg.Progress.FinishWork(cfg.Slots * int64(cfg.N))
	root := rng.New(cfg.Seed, 0x5eed) // seedflow:ok run-root: the reference engine's root stream, derived from Config.Seed
	eventSrc := root.Split(1)
	decisionSrc := root.Split(2)

	batteries := make([]*energy.Battery, cfg.N)
	recharges := make([]energy.Recharge, cfg.N)
	rechargeSrcs := make([]*rng.Source, cfg.N)
	policies := make([]Policy, cfg.N)
	for s := 0; s < cfg.N; s++ {
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
		if err != nil {
			return nil, err
		}
		batteries[s] = b
		recharges[s] = cfg.NewRecharge()
		rechargeSrcs[s] = root.Split(uint64(100 + s))
		policies[s] = cfg.NewPolicy(s)
		policies[s].Reset()
	}

	cost := cfg.Params.ActivationCost()
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, cfg.N), Engine: EngineReference}
	var m *Metrics
	if cfg.Metrics {
		m = &Metrics{}
		res.Metrics = m
	}
	sp := newStatsProbe(&cfg)
	// Tracing state: trFull demands a record for every decided slot;
	// otherwise only decision-relevant slots (nonzero activation
	// probability or an event) reach the flight recorder, which keeps
	// the per-slot cost of an armed recorder near zero on sparse
	// policies. rechargeDraw keeps each sensor's last delivered energy
	// for the records.
	tr := cfg.Tracer
	trFull := tr.Full()
	// The hot loop records through the cached sinks rather than
	// tr.Slot's fan-out: one Rec copy instead of two per recorded slot
	// (the flight recorder's ≤2% budget is priced per record).
	var trWriter *trace.Writer
	var trFlight *trace.FlightRecorder
	var rechargeDraw []float64
	var slotRecs int
	if tr != nil {
		trWriter, trFlight = tr.Writer(), tr.Recorder()
		rechargeDraw = make([]float64, cfg.N)
		tr.RunStart(trace.RunInfo{
			Engine:     trace.EngineReference,
			Sensors:    cfg.N,
			Seed:       cfg.Seed,
			Slots:      cfg.Slots,
			BatteryCap: cfg.BatteryCap,
			Cost:       cost,
			Policy:     policies[0].Name(),
			Dist:       cfg.Dist.Name(),
			Recharge:   recharges[0].Name(),
		})
	}
	// Per-slot metric accumulators stay in locals (registers) inside the
	// loop and flush into m once at the end, keeping the instrumented
	// loop within the overhead budget of DESIGN.md §9. costGate mirrors
	// energy.Battery.CanConsume.
	invCap := 1 / cfg.BatteryCap
	binScale := batteryBins * invCap
	costGate := cost - 1e-12
	var obsSlots, outage int64
	var fracSum float64

	// The paper assumes an event (and, for PI, a capture) at slot 0.
	lastEvent := int64(0)
	sharedLastCapture := int64(0)
	ownLastCapture := make([]int64, cfg.N)
	nextEvent := int64(cfg.Dist.Sample(eventSrc))

	// Lower the fault-injection map to a per-sensor slot array so the hot
	// loop never ranges over a map; hasFail skips even the array scan for
	// the common fault-free run.
	failed := make([]bool, cfg.N)
	failSlot := make([]int64, cfg.N)
	hasFail := false
	for s := range failSlot {
		failSlot[s] = math.MaxInt64
	}
	// nondeterm:ok order-independent lowering: each key writes its own slot
	for s, slot := range cfg.FailAt {
		if s >= 0 && s < cfg.N {
			failSlot[s] = slot
			hasFail = true
		}
	}

	actions := make([]bool, cfg.N)

	// decide is hoisted out of the slot loop (a closure literal inside it
	// would allocate every iteration); the per-slot variables it reads are
	// declared alongside it and mutated by the loop.
	var (
		t           int64
		event       bool
		captured    bool
		eventDenied bool // an activation attempt hit the energy gate in an event slot
	)
	decide := func(s int) {
		if failed[s] {
			return
		}
		st := SlotState{
			Slot:         t,
			SinceEvent:   int(t - lastEvent),
			SinceCapture: int(t - sharedLastCapture),
			Battery:      batteries[s].Level(),
		}
		if cfg.Info == PartialInfo {
			st.SinceEvent = -1
		}
		if cfg.Mode == ModeAll && cfg.Info == PartialInfo {
			st.SinceCapture = int(t - ownLastCapture[s])
		}
		p := policies[s].ActivationProb(st)
		active := false
		// Trace flags are set inside the branches the decision already
		// takes — no separate per-record flag branching on the hot path.
		var flags uint8
		if event {
			flags = trace.FlagEvent
		}
		switch {
		case p <= 0 || !decisionSrc.Bernoulli(p):
			// Asleep: no draw consumed when p <= 0, one otherwise.
		case !batteries[s].CanConsume(cost):
			res.Sensors[s].Denied++
			flags |= trace.FlagDenied
			if event {
				eventDenied = true
			}
		default:
			stats := &res.Sensors[s]
			active = true
			actions[s] = true
			flags |= trace.FlagActive
			batteries[s].Consume(cfg.Params.Delta1)
			stats.Activations++
			if event {
				batteries[s].Consume(cfg.Params.Delta2)
				stats.Captures++
				captured = true
				flags |= trace.FlagCaptured
			}
		}
		policies[s].Observe(outcomeFor(cfg.Info, active, event, active && event))
		if tr != nil && (trFull || p > 0 || event) {
			if trWriter != nil {
				rec := trace.Rec{
					Slot:     t,
					Sensor:   int32(s),
					Engine:   trace.EngineReference,
					Flags:    flags,
					H:        int32(st.SinceEvent),
					F:        int32(st.SinceCapture),
					Prob:     p,
					Battery:  st.Battery,
					Recharge: rechargeDraw[s],
				}
				trWriter.Rec(rec)
				slotRecs++
				if trFlight != nil {
					trFlight.Record(&rec)
				}
			} else if trFlight != nil {
				// Flight-only (the leave-on mode): fields go straight
				// into the ring slot, no intermediate Rec.
				trFlight.RecordSlot(t, int32(s), trace.EngineReference, flags,
					int32(st.SinceEvent), int32(st.SinceCapture),
					p, st.Battery, rechargeDraw[s])
			}
		}
	}

	// The slot loop is blocked into batterySampleStride-long chunks so
	// the battery observation runs between chunks rather than on a
	// data-dependent branch inside the loop: a period-stride pattern
	// inside a body with dozens of branches is beyond any predictor's
	// history, and the resulting mispredictions cost far more than the
	// observation itself. With metrics and stats off there is a single
	// chunk and the loop is exactly the uninstrumented loop.
	chunkLen := cfg.Slots
	if m != nil || sp != nil {
		chunkLen = batterySampleStride
	}
	for t = 1; t <= cfg.Slots; {
		chunkEnd := t + chunkLen - 1
		if chunkEnd > cfg.Slots {
			chunkEnd = cfg.Slots
		}
		for ; t <= chunkEnd; t++ {
			if hasFail {
				for s := 0; s < cfg.N; s++ {
					if !failed[s] && t >= failSlot[s] {
						failed[s] = true
						if tr != nil {
							tr.Fault(s, t)
						}
					}
				}
			}
			// 1. Recharge completes at the beginning of the slot.
			for s := 0; s < cfg.N; s++ {
				if failed[s] {
					continue
				}
				amt := recharges[s].Next(rechargeSrcs[s])
				batteries[s].Recharge(amt)
				if tr != nil {
					rechargeDraw[s] = amt
				}
			}

			event = t == nextEvent
			charge := cfg.inCharge(t)
			captured = false
			eventDenied = false
			for s := 0; s < cfg.N; s++ {
				actions[s] = false
			}

			if charge >= 0 {
				decide(charge)
			} else {
				for s := 0; s < cfg.N; s++ {
					decide(s)
				}
			}

			if trFull {
				// An event slot in which no sensor decided (all failed,
				// or the in-charge sensor failed) still needs a record —
				// replay reconstructs the event count from the trace. The
				// marker only matters to the full trace (the flight
				// recorder drops Sensor = -1 records), so a flight-only
				// run pays none of this bookkeeping.
				if event && slotRecs == 0 {
					tr.Slot(trace.Rec{
						Slot:   t,
						Sensor: -1,
						Engine: trace.EngineReference,
						Flags:  trace.FlagEvent,
						H:      int32(t - lastEvent),
						F:      int32(t - sharedLastCapture),
					})
				}
				slotRecs = 0
			}
			if cfg.Trace != nil {
				// Record decision-time states (the paper's H_t / F_t).
				rec := TraceRecord{
					Slot:         t,
					InCharge:     charge,
					Event:        event,
					SinceEvent:   int(t - lastEvent),
					SinceCapture: int(t - sharedLastCapture),
					Actions:      append([]bool(nil), actions...),
					Captured:     captured,
				}
				cfg.Trace(rec)
			}
			if event {
				res.Events++
				lastEvent = t
				nextEvent = t + int64(cfg.Dist.Sample(eventSrc))
				if m != nil && !captured {
					if eventDenied {
						m.MissNoEnergy++
					} else {
						m.MissAsleep++
					}
				}
				if sp != nil {
					sp.ObserveEvent(captured)
				}
				if tr != nil && !captured && eventDenied {
					tr.OutageMiss(t)
				}
			}
			if captured {
				res.Captures++
				sharedLastCapture = t
				for s := 0; s < cfg.N; s++ {
					if actions[s] {
						ownLastCapture[s] = t
					}
				}
			}
		}
		// Sample sensor 0's end-of-slot battery level once per full
		// chunk (chunkEnd is stride-aligned except possibly the last,
		// so ObservedSlots == Slots/batterySampleStride exactly).
		if (m != nil || sp != nil) && chunkEnd&(batterySampleStride-1) == 0 {
			lvl := batteries[0].Level()
			if m != nil {
				obsSlots++
				fracSum += lvl * invCap
				bin := int(lvl * binScale)
				if bin >= batteryBins {
					bin = batteryBins - 1
				}
				m.BatteryHist[bin]++
				if lvl < costGate {
					outage++
				}
			}
			if sp != nil {
				sp.ObserveBattery(lvl * invCap)
			}
		}
	}

	for s := 0; s < cfg.N; s++ {
		st := &res.Sensors[s]
		st.EnergyConsumed = batteries[s].Consumed()
		st.OverflowLost = batteries[s].OverflowLost()
		st.FinalBattery = batteries[s].Level()
	}
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	if tr != nil {
		tr.RunEnd(trace.RunEnd{Events: res.Events, Captures: res.Captures})
	}
	recordEngine(res.Engine)
	if m != nil {
		m.ObservedSlots = obsSlots
		m.BatteryFracSum = fracSum
		m.EnergyOutageSlots = outage
		// An activation on an event slot always captures, so the wasted
		// (no-event) activations are exactly activations − captures per
		// sensor; deriving the count here keeps the branch out of the
		// hot activation path.
		for i := range res.Sensors {
			m.WastedActivations += res.Sensors[i].Activations - res.Sensors[i].Captures
		}
		m.publish(res)
	}
	sp.finish(res)
	return res, nil
}

// runIndependent simulates uncoordinated PartialInfo sensors with one
// pool job per sensor. The event trajectory is drawn once up front (all
// sensors watch the same PoI) and each sensor gets its own decision
// stream root.Split(200+s), so the run is deterministic for any worker
// count. Note the seed layout differs from the sequential engine's
// shared decision stream: this configuration's outputs are reproducible
// against themselves, not against a hypothetical shared-stream run.
//
// When plans is non-nil (compileIndependent succeeded) each sensor job
// runs the compiled per-sensor loop the batch engine's decoupled-fleet
// worker also runs (indepSensorPlan.simulate) instead of interpreting the
// policy slot by slot.
func runIndependent(cfg Config, plans []indepSensorPlan) (*Result, error) {
	ex := cfg.Span.Child("exec.independent")
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(cfg.N))
	if plans != nil {
		ex.Count("compiled", 1)
	}
	root := rng.New(cfg.Seed, 0x5eed) // seedflow:ok run-root: mirrors Run's stream layout exactly
	eventSrc := root.Split(1)
	_ = root.Split(2) // keep recharge streams aligned with the sequential layout
	rechargeSrcs := make([]*rng.Source, cfg.N)
	for s := 0; s < cfg.N; s++ {
		rechargeSrcs[s] = root.Split(uint64(100 + s))
	}
	decisionSrcs := make([]*rng.Source, cfg.N)
	for s := 0; s < cfg.N; s++ {
		decisionSrcs[s] = root.Split(uint64(200 + s))
	}

	// One shared event trajectory, drawn exactly as the sequential engine
	// draws it (an assumed event at slot 0 seeds the first gap).
	var eventSlots []int64
	for t := int64(cfg.Dist.Sample(eventSrc)); t <= cfg.Slots; t += int64(cfg.Dist.Sample(eventSrc)) {
		eventSlots = append(eventSlots, t)
	}

	cost := cfg.Params.ActivationCost()
	invCap := 1 / cfg.BatteryCap
	// The stats probe is shared with the sensor jobs, but only sensor
	// 0's job touches it (battery samples) and the event feed below
	// runs after the jobs join — single-threaded access throughout.
	probe := newStatsProbe(&cfg)

	// A full-trace writer is a single stream, so the sensor jobs run on
	// one worker, in index order — the per-sensor decomposition already
	// makes results identical for every worker count, so forcing
	// sequential execution changes only the trace file's record order.
	// A flight recorder alone is safe concurrently: each job writes
	// only its own sensor's ring.
	tr := cfg.Tracer
	trFull := tr.Full()
	var trWriter *trace.Writer
	var trFlight *trace.FlightRecorder
	workers := cfg.Workers
	if trFull {
		workers = 1
	}
	if tr != nil {
		trWriter, trFlight = tr.Writer(), tr.Recorder()
		tr.RunStart(trace.RunInfo{
			Engine:     trace.EngineIndependent,
			Sensors:    cfg.N,
			Seed:       cfg.Seed,
			Slots:      cfg.Slots,
			BatteryCap: cfg.BatteryCap,
			Cost:       cost,
			Policy:     cfg.NewPolicy(0).Name(),
			Dist:       cfg.Dist.Name(),
			Recharge:   cfg.NewRecharge().Name(),
		})
	}

	type sensorOut struct {
		stats    SensorStats
		captured []bool // indexed like eventSlots
		denied   []bool // energy-denied attempts per event (metrics/trace only)
		m        *Metrics
	}
	outs, err := parallel.MapInner(workers, cfg.N, func(s int) (sensorOut, error) {
		defer cfg.Progress.FinishWork(cfg.Slots)
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
		if err != nil {
			return sensorOut{}, err
		}
		rSrc, dSrc := rechargeSrcs[s], decisionSrcs[s]
		failSlot := int64(math.MaxInt64)
		if fs, ok := cfg.FailAt[s]; ok {
			failSlot = fs
		}
		out := sensorOut{captured: make([]bool, len(eventSlots))}
		if cfg.Metrics {
			out.m = &Metrics{}
		}
		if cfg.Metrics || tr != nil {
			out.denied = make([]bool, len(eventSlots))
		}
		m := out.m
		if plans != nil {
			// Compiled per-sensor loop. A failed sensor truncates its own
			// loop at failSlot-1 — independent sensors share nothing, so
			// the truncation is exact, and fault injection stays eligible.
			sp := &plans[s]
			sp.policy.Reset()
			limit := cfg.Slots
			if failSlot-1 < limit {
				limit = failSlot - 1
			}
			o := runObservers{m: m}
			if s == 0 {
				o.probe = probe
				o.sample = m != nil || probe != nil
			}
			out.stats = sp.simulate(&cfg, sp.recharge, b, rSrc, dSrc,
				indepEvents{slots: eventSlots, captured: out.captured, denied: out.denied}, limit, o)
			return out, nil
		}
		recharge := cfg.NewRecharge()
		pol := cfg.NewPolicy(s)
		pol.Reset()
		lastCapture := int64(0)
		ei := 0
		for t := int64(1); t <= cfg.Slots && t < failSlot; t++ {
			amt := recharge.Next(rSrc)
			b.Recharge(amt)
			event := ei < len(eventSlots) && eventSlots[ei] == t
			st := SlotState{
				Slot:         t,
				SinceEvent:   -1,
				SinceCapture: int(t - lastCapture),
				Battery:      b.Level(),
			}
			p := pol.ActivationProb(st)
			active, denied := false, false
			switch {
			case p <= 0 || !dSrc.Bernoulli(p):
				// Asleep: no draw consumed when p <= 0, one otherwise.
			case !b.CanConsume(cost):
				out.stats.Denied++
				denied = true
				if out.denied != nil && event {
					out.denied[ei] = true
				}
			default:
				active = true
				b.Consume(cfg.Params.Delta1)
				out.stats.Activations++
				if event {
					b.Consume(cfg.Params.Delta2)
					out.stats.Captures++
					out.captured[ei] = true
					lastCapture = t
				}
			}
			pol.Observe(outcomeFor(cfg.Info, active, event, active && event))
			if tr != nil && (trFull || p > 0 || event) {
				var flags uint8
				if event {
					flags |= trace.FlagEvent
				}
				if active {
					flags |= trace.FlagActive
					if event {
						flags |= trace.FlagCaptured
					}
				}
				if denied {
					flags |= trace.FlagDenied
				}
				if trWriter != nil {
					rec := trace.Rec{
						Slot:     t,
						Sensor:   int32(s),
						Engine:   trace.EngineIndependent,
						Flags:    flags,
						H:        -1,
						F:        int32(st.SinceCapture),
						Prob:     p,
						Battery:  st.Battery,
						Recharge: amt,
					}
					trWriter.Rec(rec)
					if trFlight != nil {
						trFlight.Record(&rec)
					}
				} else if trFlight != nil {
					// Flight-only: fields go straight into the ring slot.
					trFlight.RecordSlot(t, int32(s), trace.EngineIndependent, flags,
						-1, int32(st.SinceCapture), p, st.Battery, amt)
				}
			}
			if event {
				ei++
			}
			// Battery occupancy is defined on sensor 0's end-of-slot
			// level, matching the sequential engine.
			if (m != nil || probe != nil) && s == 0 && t&(batterySampleStride-1) == 0 {
				lvl := b.Level() * invCap
				if m != nil {
					m.observeBattery(lvl)
					if !b.CanConsume(cost) {
						m.EnergyOutageSlots++
					}
				}
				if probe != nil {
					probe.ObserveBattery(lvl)
				}
			}
		}
		out.stats.EnergyConsumed = b.Consumed()
		out.stats.OverflowLost = b.OverflowLost()
		out.stats.FinalBattery = b.Level()
		if m != nil {
			// Same identity as the sequential engine: an activation on
			// an event slot always captures.
			m.WastedActivations = out.stats.Activations - out.stats.Captures
		}
		if tr != nil && failSlot <= cfg.Slots {
			tr.Fault(s, failSlot)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	engine := EngineReference
	if plans != nil {
		engine = EngineKernel
	}
	res := &Result{
		Slots:   cfg.Slots,
		Events:  int64(len(eventSlots)),
		Sensors: make([]SensorStats, cfg.N),
		Engine:  engine,
	}
	var m *Metrics
	var deniedAny []bool
	if cfg.Metrics {
		m = &Metrics{}
		res.Metrics = m
	}
	if cfg.Metrics || tr != nil {
		deniedAny = make([]bool, len(eventSlots))
	}
	capturedAny := make([]bool, len(eventSlots))
	for s, o := range outs {
		res.Sensors[s] = o.stats
		for i, c := range o.captured {
			if c {
				capturedAny[i] = true
			}
		}
		if m != nil {
			m.Merge(o.m)
		}
		if deniedAny != nil {
			for i, d := range o.denied {
				if d {
					deniedAny[i] = true
				}
			}
		}
	}
	for i, c := range capturedAny {
		if c {
			res.Captures++
		} else if m != nil {
			if deniedAny[i] {
				m.MissNoEnergy++
			} else {
				m.MissAsleep++
			}
		}
		if probe != nil {
			probe.ObserveEvent(c)
		}
	}
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	if tr != nil {
		// Aggregate event-outcome markers: per-sensor records only say
		// what each sensor did; the markers pin down each event slot's
		// run-level outcome (captured by anyone / denied by someone)
		// even when every sensor slept or had already failed.
		outageSeen := false
		for i, slot := range eventSlots {
			flags := trace.FlagEvent
			if capturedAny[i] {
				flags |= trace.FlagCaptured
			} else if deniedAny[i] {
				flags |= trace.FlagDenied
				if !outageSeen {
					outageSeen = true
					tr.OutageMiss(slot)
				}
			}
			tr.Slot(trace.Rec{
				Slot:   slot,
				Sensor: -1,
				Engine: trace.EngineIndependent,
				Flags:  flags,
				H:      -1,
				F:      -1,
			})
		}
		tr.RunEnd(trace.RunEnd{Events: res.Events, Captures: res.Captures})
	}
	recordEngine(res.Engine)
	if m != nil {
		m.publish(res)
	}
	probe.finish(res)
	return res, nil
}

func outcomeFor(info Info, active, event, captured bool) Outcome {
	known := active || info == FullInfo
	o := Outcome{Active: active, EventKnown: known, Captured: captured}
	if known {
		o.Event = event
	}
	return o
}

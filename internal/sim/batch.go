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
	"eventcap/internal/trace"
)

// The compiled slot loops live here and in batch_multi.go, one per fleet
// shape: batchWorker (single sensor), batchMultiWorker (round-robin
// fleet) and batchIndepWorker (decoupled fleet, whose per-sensor loop
// runIndependent shares). A compiled single run executes its shape's
// worker once, as replication 0 at Config.Seed (runCompiled).
//
// The mega-batch engine simulates Config.Batch statistically independent
// replications of one compiled configuration in a single call, sharing
// everything a replication does not own: the activation table with its
// zero/one runs, the event distribution's quantile table, and the
// Bernoulli recharge's binomial tables are built once and read by every
// replication; per-replication state (RNG sources, batteries, a stateful
// recharge's phase) lives in a fixed set of values reset in place, so the
// steady-state loop allocates nothing per replication.
//
// Determinism contract: replication r's random streams derive solely from
// Config.Seed + r, laid out exactly as a single run lays them out at that
// seed (root Reseed(Seed+r, 0x5eed), then event Split(1), decision
// Split(2), recharge Split(100)). Replication r therefore reproduces the
// run this Config would produce at Seed + r: byte-identically whenever it
// consumes its streams as the single run does (any recharge but
// Bernoulli, or any recharge with Metrics on, which disables the batched
// awake runs below), and equal in law otherwise — the same clause the
// sleep fast-forward already carries against the reference engine. The
// chunk sharding and worker count never touch the streams, so results
// are byte-identical across every Workers/BatchChunk setting.

// defaultBatchChunk is the replications-per-chunk sharding default: large
// enough to amortize per-chunk state (battery, recharge instance, RNG
// values) across many replications, small enough that a 10⁵-replication
// batch still spreads across a worker pool.
const defaultBatchChunk = 1024

// batchPlan is a validated, instantiated batch configuration: the kernel
// plan plus the batch-only shared tables. Exactly one of kernel and
// indep is non-nil: kernel covers the coordinated configurations
// (single sensor and round-robin fleets, one shared table), indep the
// decoupled ModeAll+PartialInfo fleets (one table per sensor over its
// private capture clock).
type batchPlan struct {
	kernel *kernelPlan
	indep  []indepSensorPlan
	table  *core.BatchTable
	// quant replaces Dist.Sample's per-gap transcendentals with an exact
	// threshold lookup when the distribution exposes its inversion map
	// (dist.InverseSampler); nil otherwise, falling back to Dist.Sample.
	quant *dist.QuantileTable
}

func (p *batchPlan) sensors() int {
	if p.indep != nil {
		return len(p.indep)
	}
	return p.kernel.n
}

// resettable matches per-run state that can be restored in place
// (energy.Periodic's phase, energy.OnOff's state); stateless processes
// don't implement it (the energy.Recharge contract).
type resettable interface{ Reset() }

// compileBatch probes whether cfg (already validated) can run on the
// batch engine. It returns the plan, or nil and the structural fallback
// reason. Eligibility is the kernel's (or, for decoupled fleets, the
// independent engine's) plus one batch-only condition: no slot tracer
// (the engine reports aggregates, never slot records). sp (nilable) is
// the caller's "compile" span; the batch-table build gets its own child
// under it.
func compileBatch(cfg *Config, sp *obs.Span) (*batchPlan, fallback) {
	if cfg.Tracer != nil {
		return nil, fallback{"tracer", "slot tracing requested"}
	}
	kp, fb := compileKernel(cfg)
	if kp == nil {
		if cfg.independentSensors() {
			return compileBatchIndependent(cfg, sp)
		}
		return nil, fb
	}
	tsp := sp.Child("batch.table")
	plan := &batchPlan{kernel: kp, table: core.CompileBatch(kp.table)}
	if s := dist.AsInverseSampler(cfg.Dist); s != nil {
		plan.quant = dist.NewQuantileTable(s)
	}
	tsp.End()
	return plan, fallback{}
}

// compileBatchIndependent is compileBatch's probe for decoupled
// ModeAll+PartialInfo fleets: every sensor must compile to a per-sensor
// plan, and faults stay on the per-replication fallback (a truncated
// sensor is cheap there and rare enough not to earn a batched loop).
func compileBatchIndependent(cfg *Config, sp *obs.Span) (*batchPlan, fallback) {
	if len(cfg.FailAt) > 0 {
		return nil, fallback{"fault", "fault injection requested"}
	}
	plans, fb := compileIndependent(cfg)
	if plans == nil {
		return nil, fb
	}
	tsp := sp.Child("batch.table")
	plan := &batchPlan{indep: plans}
	if s := dist.AsInverseSampler(cfg.Dist); s != nil {
		plan.quant = dist.NewQuantileTable(s)
	}
	tsp.End()
	return plan, fallback{}
}

// runBatch executes the batch: replications are sharded into chunks of
// Config.BatchChunk and the chunks mapped across the worker pool; each
// chunk owns one batchWorker whose state is reset per replication.
func runBatch(cfg Config, plan *batchPlan) (*Result, error) {
	reps := cfg.Batch
	if reps < 1 {
		reps = 1
	}
	chunk := cfg.BatchChunk
	if chunk < 1 {
		chunk = defaultBatchChunk
	}
	numChunks := (reps + chunk - 1) / chunk
	if plan.kernel != nil {
		for _, p := range plan.kernel.policies {
			p.Reset()
		}
	} else {
		for s := range plan.indep {
			plan.indep[s].policy.Reset()
		}
	}

	// Replication r's sensors occupy the rep-major block [r·n, (r+1)·n),
	// matching runBatchFallback's append order.
	n := plan.sensors()
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, reps*n), Engine: EngineBatch}
	sensors := res.Sensors
	// The stats probe observes at replication granularity (mirroring
	// Metrics.mergeReplica): chunks record their replications' event
	// totals at disjoint indices, and the feed happens in replication
	// order after the join — the workers' awake-run batching and draw
	// discipline stay untouched.
	probe := newStatsProbe(&cfg)
	var repCounts [][2]int64
	if probe != nil {
		repCounts = make([][2]int64, reps)
	}

	ex := cfg.Span.Child("exec.batch")
	defer ex.End()
	ex.Count("replications", int64(reps))
	ex.Count("chunks", int64(numChunks))
	ex.Count("slots", cfg.Slots*int64(reps)*int64(n))

	type chunkOut struct {
		events, captures int64
		m                *Metrics
	}
	outs, err := parallel.MapInner(cfg.Workers, numChunks, func(ci int) (chunkOut, error) {
		csp := ex.Fork("chunk")
		defer csp.End()
		w, err := newBatchRunner(&cfg, plan, false)
		if err != nil {
			return chunkOut{}, err
		}
		var out chunkOut
		if cfg.Metrics {
			out.m = &Metrics{}
		}
		lo := ci * chunk
		hi := lo + chunk
		if hi > reps {
			hi = reps
		}
		csp.Count("replications", int64(hi-lo))
		for r := lo; r < hi; r++ {
			// Battery occupancy is defined on replication 0 only (see
			// Metrics.mergeReplica).
			o := runObservers{m: out.m, sample: out.m != nil && r == 0}
			ev, cp := w.simulate(&cfg, plan, uint64(r), sensors[r*n:(r+1)*n], o)
			if repCounts != nil {
				repCounts[r] = [2]int64{ev, cp}
			}
			out.events += ev
			out.captures += cp
		}
		cfg.Progress.FinishWork(cfg.Slots * int64(hi-lo) * int64(n))
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	agg := ex.Child("aggregate")
	var m *Metrics
	if cfg.Metrics {
		m = &Metrics{}
		res.Metrics = m
	}
	for _, o := range outs {
		res.Events += o.events
		res.Captures += o.captures
		if m != nil {
			// Only replication 0's chunk carries battery-occupancy
			// observations, so a plain Merge preserves the replication-0
			// occupancy convention (see Metrics.mergeReplica).
			m.Merge(o.m)
		}
	}
	if probe != nil {
		for _, rc := range repCounts {
			probe.ObserveReplica(rc[0], rc[1])
		}
	}
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	recordEngine(res.Engine)
	if m != nil {
		m.publish(res)
	}
	probe.finish(res)
	agg.End()
	return res, nil
}

// batchRunner is one shape's compiled slot loop: simulate runs
// replication rep into its rep-major sensors block and returns the
// replication's event and capture counts. The batch engine keeps one
// per chunk; a single compiled run (runCompiled) executes one once.
type batchRunner interface {
	simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o runObservers) (events, captures int64)
}

// newBatchRunner picks the worker for the plan's shape: the
// single-sensor worker (with its awake-run batching), the round-robin
// fleet worker, or the decoupled-fleet worker. single marks a worker
// that runs one replication only, on the plan's own recharge instances.
func newBatchRunner(cfg *Config, plan *batchPlan, single bool) (batchRunner, error) {
	if plan.indep != nil {
		return newBatchIndepWorker(cfg, plan)
	}
	if plan.kernel.n > 1 {
		return newBatchMultiWorker(cfg, plan, single)
	}
	return newBatchWorker(cfg, plan, single)
}

// workerRecharge hands a worker its own instance of the plan's recharge
// process: the shared instance when stateless or when the worker runs a
// single replication, a fresh prepared instance (reset before every
// replication) otherwise — chunks run concurrently, so a stateful
// process can never be shared.
func workerRecharge(cfg *Config, shared energy.Recharge, single bool) (energy.Recharge, resettable) {
	if _, stateful := shared.(resettable); !stateful || single {
		return shared, nil
	}
	fresh := newPreparedRecharge(cfg)
	rst, _ := fresh.(resettable)
	return fresh, rst
}

// batchWorker is the single-sensor slot loop's state: RNG values
// reseeded in place per replication, one battery reset per replication,
// and the worker's recharge process (see workerRecharge).
type batchWorker struct {
	root, eventSrc, decisionSrc, rechargeSrc rng.Source

	battery *energy.Battery
	rech    energy.Recharge
	rechRst resettable // non-nil iff the worker owns a fresh stateful recharge

	// single disables awake-run batching: a single run consumes its
	// streams slot by slot on awake slots, which keeps it the byte-exact
	// twin of an instrumented batch replication at the same seed.
	single bool

	bern         *energy.Bernoulli
	isBern       bool
	bernQ, bernC float64
}

func newBatchWorker(cfg *Config, plan *batchPlan, single bool) (*batchWorker, error) {
	w := &batchWorker{single: single}
	b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
	if err != nil {
		return nil, err
	}
	w.battery = b
	w.rech, w.rechRst = workerRecharge(cfg, plan.kernel.recharges[0], single)
	if bern, ok := w.rech.(*energy.Bernoulli); ok {
		w.bern = bern
		w.isBern = true
		w.bernQ, w.bernC = bern.Q(), bern.C()
	}
	return w, nil
}

// simulate runs one replication, returning its event and capture counts.
// Sleep runs fast-forward in O(1) (one span each when traced); awake
// slots replicate the reference engine's slot exactly. Two batch
// accelerations apply on top: quantile-table event sampling when the
// plan carries one (byte-identical to Dist.Sample by the InverseSampler
// contract) and closed-form awake runs (equal in law; off for single
// runs and whenever metrics are on, so those consume their streams slot
// by slot).
func (w *batchWorker) simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o runObservers) (events, captures int64) {
	stats := &sensors[0]
	w.root.Reseed(cfg.Seed+rep, 0x5eed) // seedflow:ok replication-root: rep r must equal the reference engine's root at Seed+r
	w.root.SplitInto(&w.eventSrc, 1)
	w.root.SplitInto(&w.decisionSrc, 2)
	w.root.SplitInto(&w.rechargeSrc, 100)
	w.battery.Reset(cfg.InitialBattery)
	if w.rechRst != nil {
		w.rechRst.Reset()
	}

	table := plan.table
	quant := plan.quant
	d := cfg.Dist
	battery := w.battery
	rech := w.rech
	state := plan.kernel.state
	modulus := plan.kernel.modulus
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	isBern, bernQ, bernC := w.isBern, w.bernQ, w.bernC
	m, probe, tr := o.m, o.probe, o.tracer
	// Awake-run batching draws one recharge count per run instead of one
	// Bernoulli per slot, so it is off whenever metrics are on — an
	// instrumented replication must consume its streams exactly as the
	// single run at Seed + rep does.
	oneRuns := !w.single && m == nil && isBern

	// Per-awake-slot metric accumulators stay in locals (registers)
	// inside the loop and flush into m once at the end, keeping the
	// instrumented loop within the slot-loop overhead budget of DESIGN.md
	// §9. costGate mirrors energy.Battery.CanConsume. sampleCountdown
	// costs one decrement-and-test per awake slot whether sampling is on
	// or off (off starts from MaxInt64 and never fires).
	invCap := 1 / cfg.BatteryCap
	binScale := batteryBins * invCap
	costGate := cost - 1e-12
	var obsSlots, outage int64
	var fracSum float64
	sampleCountdown := int64(math.MaxInt64)
	if o.sample {
		sampleCountdown = batterySampleStride
	}

	// Tracing: awake slots always decide with nonzero probability (a
	// zero-probability state would have been a sleep run), so every
	// awake slot is decision-relevant and gets a record; each sleep run
	// becomes one compressed span. partialH mirrors the reference
	// engine's h = -1 under partial information, keeping the two
	// engines' records comparable for tracetool diff. The awake-slot
	// records go straight to the cached sinks (one Rec copy per slot)
	// instead of through tr.Slot's fan-out.
	partialH := cfg.Info == PartialInfo
	var trWriter *trace.Writer
	var trFlight *trace.FlightRecorder
	if tr != nil {
		trWriter, trFlight = tr.Writer(), tr.Recorder()
		tr.RunStart(trace.RunInfo{
			Engine:     trace.EngineKernel,
			Sensors:    1,
			Seed:       cfg.Seed + rep,
			Slots:      cfg.Slots,
			BatteryCap: cfg.BatteryCap,
			Cost:       cost,
			Policy:     plan.kernel.policies[0].Name(),
			Dist:       d.Name(),
			Recharge:   rech.Name(),
		})
	}

	var activations, denied int64

	// The paper assumes an event (and capture) at slot 0.
	lastEvent, lastCapture := int64(0), int64(0)
	var nextEvent int64
	if quant != nil {
		nextEvent = int64(quant.Sample(&w.eventSrc))
	} else {
		nextEvent = int64(d.Sample(&w.eventSrc))
	}

	t := int64(1)
	for t <= cfg.Slots {
		var st int64
		switch state {
		case StateSinceEvent:
			st = t - lastEvent
		case StateSinceCapture:
			st = t - lastCapture
		default:
			st = (t-1)%modulus + 1
		}

		if z := table.ZeroRunFrom(int(st)); z > 0 {
			// Sleep run: the policy stays silent for the next z slots (no
			// decision draws, no consumption), unless the state machine
			// intervenes first.
			n := z
			if state == StateSlotPhase {
				if wrap := modulus - st + 1; n > wrap {
					n = wrap
				}
			}
			if left := cfg.Slots - t + 1; n > left {
				n = left
			}
			eventsBefore := events
			var span energy.SpanProbe
			if tr != nil {
				span = battery.BeginSpan()
			}
			if state == StateSinceEvent && nextEvent-t+1 <= n {
				// The event resets h to 1 for the following slot, ending
				// the run at the (slept-through) event slot itself.
				n = nextEvent - t + 1
				rech.FastForward(battery, n, &w.rechargeSrc)
				events++
				lastEvent = nextEvent
				if quant != nil {
					nextEvent += int64(quant.Sample(&w.eventSrc))
				} else {
					nextEvent += int64(d.Sample(&w.eventSrc))
				}
			} else {
				rech.FastForward(battery, n, &w.rechargeSrc)
				// SinceCapture and SlotPhase states ignore events, so any
				// number of events may fall inside the run; drain them in
				// arrival order to keep the event stream aligned.
				end := t + n - 1
				for nextEvent <= end {
					events++
					lastEvent = nextEvent
					if quant != nil {
						nextEvent += int64(quant.Sample(&w.eventSrc))
					} else {
						nextEvent += int64(d.Sample(&w.eventSrc))
					}
				}
			}
			if tr != nil {
				tr.Span(trace.Span{
					Start:     t,
					Len:       n,
					Events:    events - eventsBefore,
					State:     uint8(state),
					Delivered: battery.EndSpan(span),
					Battery:   battery.Level(),
				})
			}
			if m != nil {
				// Every event inside a sleep run is a policy-scheduled
				// miss: the sensor slept through it by construction.
				m.KernelRuns++
				m.KernelSlotsFastForwarded += n
				m.MissAsleep += events - eventsBefore
			}
			if probe != nil {
				probe.ObserveMisses(events - eventsBefore)
			}
			t += n
			continue
		}

		if oneRuns {
			if one := table.OneRunFrom(int(st)); one > 1 {
				// Certain-activation run: Bernoulli(p >= 1) consumes no
				// decision draws, so until the next event the slots are a
				// pure recharge/consume stream the battery can absorb in
				// closed form.
				n := one
				if state == StateSlotPhase {
					if wrap := modulus - st + 1; n > wrap {
						n = wrap
					}
				}
				if gap := nextEvent - t; n > gap {
					// The event slot mutates state (capture, h/f reset),
					// so the run stops just before it.
					n = gap
				}
				if left := cfg.Slots - t + 1; n > left {
					n = left
				}
				if n > 1 && w.awakeRun(n, cost, delta1) {
					activations += n
					t += n
					continue
				}
			}
		}

		// Awake slot: replicate the reference engine's slot exactly.
		var amt float64
		if isBern {
			if w.rechargeSrc.Bernoulli(bernQ) {
				amt = bernC
				battery.Recharge(bernC)
			}
		} else {
			amt = rech.Next(&w.rechargeSrc)
			battery.Recharge(amt)
		}
		event := t == nextEvent
		p := table.At(int(st))
		// Decision-time states and battery, captured before the slot
		// mutates them, mirroring the reference engine's records.
		var h, f int64
		var preLvl float64
		if tr != nil {
			h = t - lastEvent
			if partialH {
				h = -1
			}
			f = t - lastCapture
			preLvl = battery.Level()
		}
		capturedHere, deniedHere, active := false, false, false
		if w.decisionSrc.Bernoulli(p) {
			if !battery.CanConsume(cost) {
				denied++
				deniedHere = true
			} else {
				active = true
				battery.Consume(delta1)
				activations++
				if event {
					battery.Consume(delta2)
					captures++
					lastCapture = t
					capturedHere = true
				}
			}
		}
		if event {
			events++
			lastEvent = t
			if quant != nil {
				nextEvent = t + int64(quant.Sample(&w.eventSrc))
			} else {
				nextEvent = t + int64(d.Sample(&w.eventSrc))
			}
			if m != nil && !capturedHere {
				if deniedHere {
					m.MissNoEnergy++
				} else {
					m.MissAsleep++
				}
			}
			if probe != nil {
				probe.ObserveEvent(capturedHere)
			}
			if tr != nil && !capturedHere && deniedHere {
				tr.OutageMiss(t)
			}
		}
		if tr != nil {
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
			if deniedHere {
				flags |= trace.FlagDenied
			}
			if trWriter != nil {
				rec := trace.Rec{
					Slot:     t,
					Sensor:   0,
					Engine:   trace.EngineKernel,
					Flags:    flags,
					H:        int32(h),
					F:        int32(f),
					Prob:     p,
					Battery:  preLvl,
					Recharge: amt,
				}
				trWriter.Rec(rec)
				if trFlight != nil {
					trFlight.Record(&rec)
				}
			} else if trFlight != nil {
				// Flight-only: fields go straight into the ring slot.
				trFlight.RecordSlot(t, 0, trace.EngineKernel, flags,
					int32(h), int32(f), p, preLvl, amt)
			}
		}
		// End-of-slot battery sample on every stride-th awake slot,
		// matching the per-slot engines' end-of-slot semantics.
		sampleCountdown--
		if sampleCountdown == 0 {
			sampleCountdown = batterySampleStride
			lvl := battery.Level()
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
			if probe != nil {
				probe.ObserveBattery(lvl * invCap)
			}
		}
		t++
	}

	stats.Activations = activations
	stats.Captures = captures
	stats.Denied = denied
	stats.EnergyConsumed = battery.Consumed()
	stats.OverflowLost = battery.OverflowLost()
	stats.FinalBattery = battery.Level()
	if tr != nil {
		tr.RunEnd(trace.RunEnd{Events: events, Captures: captures})
	}
	if m != nil {
		m.ObservedSlots += obsSlots
		m.BatteryFracSum += fracSum
		m.EnergyOutageSlots += outage
		// An activation on an event slot always captures, so wasted
		// (no-event) activations are exactly activations − captures.
		m.WastedActivations += activations - captures
	}
	return events, captures
}

// awakeRun applies n consecutive certain-activation, no-event slots in
// O(1): one binomial recharge count plus closed-form battery moves. It
// succeeds only when no slot in the stretch could hit the energy gate or
// the capacity clip regardless of how deliveries and consumptions
// interleave — then the final level is order-independent and batching the
// recharges before the consumptions reproduces the per-slot outcome. The
// caller falls back to per-slot execution when a guard fails.
func (w *batchWorker) awakeRun(n int64, cost, delta1 float64) bool {
	lvl := w.battery.Level()
	// Gate worst case: every consumption lands before any delivery, so
	// slot j starts at lvl − j·δ1 and the last must still afford cost.
	if lvl-float64(n-1)*delta1 < cost {
		return false
	}
	// Clip worst case: every delivery lands before any consumption.
	if lvl+float64(n)*w.bernC > w.battery.Capacity() {
		return false
	}
	w.bern.FastForward(w.battery, n, &w.rechargeSrc)
	if !w.battery.ConsumeN(delta1, n) {
		// Off the exactness grid: apply the consumptions one by one (the
		// guards still hold, so none is denied).
		for i := int64(0); i < n; i++ {
			w.battery.Consume(delta1)
		}
	}
	return true
}

// runBatchFallback aggregates cfg.Batch replications through the per-run
// engines when the batch engine is ineligible or a per-run engine is
// forced: replication r reruns the configuration at Seed + r with Batch
// cleared, preserving the batch engine's seed pairing so results stay
// comparable across engines. Replications run sequentially — the per-run
// engines parallelize internally where profitable, and the trace hooks
// (handed to replication 0 only) are single-stream consumers. Each inner run publishes its own observability totals;
// the aggregate does not publish again.
func runBatchFallback(cfg Config) (*Result, error) {
	reps := cfg.Batch
	ex := cfg.Span.Child("exec.batch_fallback")
	defer ex.End()
	ex.Count("replications", int64(reps))
	res := &Result{Slots: cfg.Slots}
	var m *Metrics
	if cfg.Metrics {
		m = &Metrics{}
		res.Metrics = m
	}
	// The aggregate's stats probe observes at replication granularity,
	// exactly like runBatch; the inner runs never see Stats/StatsSink
	// (their per-event streams would describe one replication, not the
	// batch).
	probe := newStatsProbe(&cfg)
	for r := 0; r < reps; r++ {
		sub := cfg
		sub.Batch = 0
		sub.BatchChunk = 0
		sub.Stats = false
		sub.StatsSink = nil
		sub.Seed = cfg.Seed + uint64(r)
		// Every replication's compile/exec spans nest under this phase;
		// replication 0 stands for all of them (spans are per-phase, and
		// B sequential identical trees would bloat the export), matching
		// the Trace/Tracer convention below.
		sub.Span = ex
		if r > 0 {
			sub.Span = nil
			sub.Trace = nil
			sub.Tracer = nil
		}
		rr, err := Run(sub)
		if err != nil {
			return nil, fmt.Errorf("sim: batch replication %d: %w", r, err)
		}
		res.Events += rr.Events
		res.Captures += rr.Captures
		res.Sensors = append(res.Sensors, rr.Sensors...)
		if probe != nil {
			probe.ObserveReplica(rr.Events, rr.Captures)
		}
		if r == 0 {
			res.Engine = rr.Engine
			if m != nil {
				*m = *rr.Metrics
			}
		} else if m != nil {
			m.mergeReplica(rr.Metrics)
		}
	}
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	probe.finish(res)
	return res, nil
}

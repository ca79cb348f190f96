package sim

import (
	"math"

	"eventcap/internal/energy"
	"eventcap/internal/rng"
)

// Fleet-shaped workers. Two shapes exist beyond the single-sensor
// batchWorker:
//
//   - batchMultiWorker: coordinated round-robin fleets (M-FI / M-PI and
//     the multi-sensor aggressive baseline, plan.kernel.n > 1). The
//     in-charge sensor's decision state is global (h resets on every
//     event, the broadcast f on every capture, the slot phase is
//     absolute), so the fleet shares one compiled activation table and
//     the single-sensor sleep fast-forward generalizes over the sensor
//     dimension: a run of z zero-probability states silences whichever
//     sensors own those slots, and the only per-sensor work is advancing
//     N batteries through their own recharge streams. There is no
//     awake-run batching here: decision ownership rotates per slot, so a
//     certain-activation run spans several batteries and the closed-form
//     guard no longer applies.
//
//     RNG stream layout (the reference engine's, for byte-identity under
//     deterministic recharge): root Reseed(Seed+r, 0x5eed), event
//     Split(1), shared decision Split(2), then recharge Split(100+s) for
//     s = 0..N-1 in sensor order. Per slot the reference consumes one
//     recharge draw per sensor — each from its own stream, so batching a
//     sleep run's n draws per sensor is exactly n sequential draws — and
//     one decision draw iff the in-charge sensor's probability is
//     positive, which is precisely the awake-slot condition here. Under
//     Bernoulli recharge each sensor's sleep run collapses to one exact
//     Binomial(n, q) draw and results agree in law (the
//     energy.Recharge fast-forward contract).
//
//   - batchIndepWorker: decoupled ModeAll+PartialInfo fleets
//     (plan.indep != nil). Replication r reproduces runIndependent at
//     Seed + r: same stream layout (event Split(1), a discarded
//     Split(2), recharge Split(100+s), decision Split(200+s)), same
//     shared event trajectory, and the same per-sensor compiled loop
//     (indepSensorPlan.simulate). The battery is a single instance reset
//     per sensor — sensors never interact, so sequential reuse is exact.

// batchMultiWorker is the round-robin fleet's slot-loop state:
// per-sensor batteries, recharge processes, streams and counters, reset
// or reseeded in place per replication.
type batchMultiWorker struct {
	root, eventSrc, decisionSrc rng.Source

	rechargeSrcs []rng.Source
	batteries    []energy.Battery
	rechs        []energy.Recharge
	rechRsts     []resettable

	allBern      bool
	bernQ, bernC []float64

	// activations, denied and captures are the per-sensor counters,
	// zeroed per replication.
	activations, denied, captures []int64
}

func newBatchMultiWorker(cfg *Config, plan *batchPlan, single bool) (*batchMultiWorker, error) {
	n := plan.kernel.n
	counters := make([]int64, 3*n)
	w := &batchMultiWorker{
		rechargeSrcs: make([]rng.Source, n),
		batteries:    make([]energy.Battery, n),
		rechs:        make([]energy.Recharge, n),
		rechRsts:     make([]resettable, n),
		allBern:      true,
		bernQ:        make([]float64, n),
		bernC:        make([]float64, n),
		activations:  counters[:n],
		denied:       counters[n : 2*n],
		captures:     counters[2*n:],
	}
	for s := 0; s < n; s++ {
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
		if err != nil {
			return nil, err
		}
		w.batteries[s] = *b
		rech, rst := workerRecharge(cfg, plan.kernel.recharges[s], single)
		w.rechs[s], w.rechRsts[s] = rech, rst
		if bern, ok := rech.(*energy.Bernoulli); ok {
			w.bernQ[s], w.bernC[s] = bern.Q(), bern.C()
		} else {
			w.allBern = false
		}
	}
	return w, nil
}

// simulate runs one replication. Sensor ownership of awake slot t is
// (t-1) mod N — the same modulus mechanics as StateSlotPhase, but folded
// into per-slot attribution only: sleep runs are ownership-agnostic
// (nobody decides), so they never split on sensor boundaries.
func (w *batchMultiWorker) simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o runObservers) (events, captures int64) {
	n := len(sensors)
	w.root.Reseed(cfg.Seed+rep, 0x5eed) // seedflow:ok replication-root: rep r must equal the reference engine's root at Seed+r
	w.root.SplitInto(&w.eventSrc, 1)
	w.root.SplitInto(&w.decisionSrc, 2)
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.rechargeSrcs[s], uint64(100+s))
		w.batteries[s].Reset(cfg.InitialBattery)
		if w.rechRsts[s] != nil {
			w.rechRsts[s].Reset()
		}
	}
	activations, denied, sensorCaptures := w.activations, w.denied, w.captures
	for s := 0; s < n; s++ {
		activations[s], denied[s], sensorCaptures[s] = 0, 0, 0
	}

	table := plan.table
	quant := plan.quant
	d := cfg.Dist
	state := plan.kernel.state
	modulus := plan.kernel.modulus
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	// Devirtualize the per-awake-slot recharge draws when the whole fleet
	// runs the paper's Bernoulli process (one factory, so in practice all
	// or none); the draws consume the streams exactly as Bernoulli.Next.
	isBern := w.allBern
	m, probe := o.m, o.probe

	// Same accumulator discipline as batchWorker: per-awake-slot metric
	// state stays in locals and flushes once at the end. Occupancy tracks
	// sensor 0 every stride-th awake slot.
	invCap := 1 / cfg.BatteryCap
	binScale := batteryBins * invCap
	costGate := cost - 1e-12
	var obsSlots, outage int64
	var fracSum float64
	sampleCountdown := int64(math.MaxInt64)
	if o.sample {
		sampleCountdown = batterySampleStride
	}

	// The paper assumes an event (and capture) at slot 0.
	lastEvent, lastCapture := int64(0), int64(0)
	var nextEvent int64
	if quant != nil {
		nextEvent = int64(quant.Sample(&w.eventSrc))
	} else {
		nextEvent = int64(d.Sample(&w.eventSrc))
	}
	nn := int64(n)

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
			// Sleep run: every sensor owning a slot in the run would read
			// the same zero-probability state, so the whole fleet stays
			// silent for the next run slots (no decision draws, no
			// consumption) and all N batteries fast-forward together.
			run := z
			if state == StateSlotPhase {
				if wrap := modulus - st + 1; run > wrap {
					run = wrap
				}
			}
			if left := cfg.Slots - t + 1; run > left {
				run = left
			}
			eventsBefore := events
			if state == StateSinceEvent && nextEvent-t+1 <= run {
				// The event resets h to 1 for the following slot, ending
				// the run at the (slept-through) event slot itself.
				run = nextEvent - t + 1
				for s := 0; s < n; s++ {
					w.rechs[s].FastForward(&w.batteries[s], run, &w.rechargeSrcs[s])
				}
				events++
				lastEvent = nextEvent
				if quant != nil {
					nextEvent += int64(quant.Sample(&w.eventSrc))
				} else {
					nextEvent += int64(d.Sample(&w.eventSrc))
				}
			} else {
				for s := 0; s < n; s++ {
					w.rechs[s].FastForward(&w.batteries[s], run, &w.rechargeSrcs[s])
				}
				// SinceCapture and SlotPhase states ignore events; drain
				// any that fall inside the run in arrival order.
				end := t + run - 1
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
			if m != nil {
				// KernelSlotsFastForwarded counts slots, not sensor-slots:
				// one run of length run skips run slots for the whole
				// fleet, preserving awake = Slots − FastForwarded.
				m.KernelRuns++
				m.KernelSlotsFastForwarded += run
				m.MissAsleep += events - eventsBefore
			}
			if probe != nil {
				probe.ObserveMisses(events - eventsBefore)
			}
			t += run
			continue
		}

		// Awake slot: replicate the reference engine's slot exactly —
		// every sensor recharges, only the in-charge sensor decides.
		if isBern {
			for s := 0; s < n; s++ {
				if w.rechargeSrcs[s].Bernoulli(w.bernQ[s]) {
					w.batteries[s].Recharge(w.bernC[s])
				}
			}
		} else {
			for s := 0; s < n; s++ {
				w.batteries[s].Recharge(w.rechs[s].Next(&w.rechargeSrcs[s]))
			}
		}
		event := t == nextEvent
		charge := int((t - 1) % nn)
		battery := &w.batteries[charge]
		p := table.At(int(st))
		capturedHere, deniedHere := false, false
		if w.decisionSrc.Bernoulli(p) {
			if !battery.CanConsume(cost) {
				denied[charge]++
				deniedHere = true
			} else {
				battery.Consume(delta1)
				activations[charge]++
				if event {
					battery.Consume(delta2)
					sensorCaptures[charge]++
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
		}
		// End-of-slot battery sample of sensor 0 on every stride-th awake
		// slot, matching the single-sensor convention.
		sampleCountdown--
		if sampleCountdown == 0 {
			sampleCountdown = batterySampleStride
			lvl := w.batteries[0].Level()
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

	for s := 0; s < n; s++ {
		sensors[s] = SensorStats{
			Activations:    activations[s],
			Captures:       sensorCaptures[s],
			Denied:         denied[s],
			EnergyConsumed: w.batteries[s].Consumed(),
			OverflowLost:   w.batteries[s].OverflowLost(),
			FinalBattery:   w.batteries[s].Level(),
		}
	}
	if m != nil {
		m.ObservedSlots += obsSlots
		m.BatteryFracSum += fracSum
		m.EnergyOutageSlots += outage
		var act, cap64 int64
		for s := 0; s < n; s++ {
			act += activations[s]
			cap64 += sensorCaptures[s]
		}
		// An activation on an event slot always captures, so wasted
		// (no-event) activations are exactly activations − captures.
		m.WastedActivations += act - cap64
	}
	return events, captures
}

// batchIndepWorker is one chunk's replication state for a decoupled
// fleet: per-sensor streams and recharge processes, one battery reset
// per sensor per replication, and reusable event/outcome buffers.
type batchIndepWorker struct {
	root, eventSrc, scratch rng.Source

	rechargeSrcs []rng.Source
	decisionSrcs []rng.Source
	battery      *energy.Battery
	rechs        []energy.Recharge
	rechRsts     []resettable

	eventBuf    []int64
	capturedBuf []bool
	deniedBuf   []bool
}

func newBatchIndepWorker(cfg *Config, plan *batchPlan) (*batchIndepWorker, error) {
	n := len(plan.indep)
	b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
	if err != nil {
		return nil, err
	}
	w := &batchIndepWorker{
		rechargeSrcs: make([]rng.Source, n),
		decisionSrcs: make([]rng.Source, n),
		battery:      b,
		rechs:        make([]energy.Recharge, n),
		rechRsts:     make([]resettable, n),
	}
	for s := 0; s < n; s++ {
		w.rechs[s], w.rechRsts[s] = workerRecharge(cfg, plan.indep[s].recharge, false)
	}
	return w, nil
}

func (w *batchIndepWorker) simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o runObservers) (events, captures int64) {
	n := len(sensors)
	w.root.Reseed(cfg.Seed+rep, 0x5eed) // seedflow:ok replication-root: rep r must equal runIndependent's root at Seed+r
	w.root.SplitInto(&w.eventSrc, 1)
	// runIndependent discards Split(2); the discard still consumes one
	// root draw, keeping the remaining streams aligned.
	w.root.SplitInto(&w.scratch, 2)
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.rechargeSrcs[s], uint64(100+s))
	}
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.decisionSrcs[s], uint64(200+s))
	}

	// One shared event trajectory, drawn exactly as runIndependent draws
	// it (an assumed event at slot 0 seeds the first gap).
	quant := plan.quant
	d := cfg.Dist
	w.eventBuf = w.eventBuf[:0]
	if quant != nil {
		for t := int64(quant.Sample(&w.eventSrc)); t <= cfg.Slots; t += int64(quant.Sample(&w.eventSrc)) {
			w.eventBuf = append(w.eventBuf, t)
		}
	} else {
		for t := int64(d.Sample(&w.eventSrc)); t <= cfg.Slots; t += int64(d.Sample(&w.eventSrc)) {
			w.eventBuf = append(w.eventBuf, t)
		}
	}
	eventSlots := w.eventBuf
	if cap(w.capturedBuf) < len(eventSlots) {
		w.capturedBuf = make([]bool, len(eventSlots))
		w.deniedBuf = make([]bool, len(eventSlots))
	}
	ev := indepEvents{
		slots:    eventSlots,
		captured: w.capturedBuf[:len(eventSlots)],
		denied:   w.deniedBuf[:len(eventSlots)],
	}
	for i := range ev.captured {
		ev.captured[i] = false
		ev.denied[i] = false
	}

	m := o.m
	for s := 0; s < n; s++ {
		w.battery.Reset(cfg.InitialBattery)
		if w.rechRsts[s] != nil {
			w.rechRsts[s].Reset()
		}
		// Battery occupancy keeps the independent engine's sensor-0
		// convention on top of the caller's replication choice.
		so := runObservers{m: m, sample: o.sample && s == 0}
		sensors[s] = plan.indep[s].simulate(cfg, w.rechs[s], w.battery,
			&w.rechargeSrcs[s], &w.decisionSrcs[s], ev, cfg.Slots, so)
	}

	events = int64(len(eventSlots))
	for i, c := range ev.captured {
		if c {
			captures++
		} else if m != nil {
			if ev.denied[i] {
				m.MissNoEnergy++
			} else {
				m.MissAsleep++
			}
		}
	}
	return events, captures
}

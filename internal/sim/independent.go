package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/energy"
	"eventcap/internal/rng"
)

// indepSensorPlan is one decoupled sensor's compiled fast path in the
// independent-sensor engine (ModeAll + PartialInfo): its own activation
// table over its own capture clock, plus its own prepared recharge.
// Unlike the round-robin plan the tables need not match across sensors —
// each sensor's trajectory is fully private.
type indepSensorPlan struct {
	table    *core.ActivationTable
	state    StateKind
	modulus  int64
	policy   Policy
	recharge energy.Recharge
}

// compileIndependent probes whether every sensor of an independent
// configuration (cfg.independentSensors() == true) can run the compiled
// per-sensor loop (indepSensorPlan.simulate). Fault injection stays
// eligible — a dead independent sensor is a clean truncation of its own
// loop, not an interleaving change. Slot tracing needs the interpreted
// per-slot view.
func compileIndependent(cfg *Config) ([]indepSensorPlan, fallback) {
	if cfg.Tracer != nil {
		return nil, fallback{"tracer", "slot tracing of independent sensors"}
	}
	plans := make([]indepSensorPlan, cfg.N)
	for s := 0; s < cfg.N; s++ {
		pol := cfg.NewPolicy(s)
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
		if cp.State == StateSinceEvent {
			// Independent sensors are partial-information by definition.
			return nil, fallback{"info", fmt.Sprintf("policy %s needs full information", pol.Name())}
		}
		if cp.State == StateSlotPhase && cp.Modulus < 1 {
			return nil, fallback{"policy", fmt.Sprintf("policy %s compiled with modulus %d", pol.Name(), cp.Modulus)}
		}
		plans[s] = indepSensorPlan{
			table:    cp.Table,
			state:    cp.State,
			modulus:  int64(cp.Modulus),
			policy:   pol,
			recharge: newPreparedRecharge(cfg),
		}
	}
	return plans, fallback{}
}

// indepEvents is one replication's shared event trajectory plus the
// per-event outcome flags its sensors set: captured[i] (denied[i]) when
// a sensor captured (was energy-denied at) slots[i]. denied may be nil
// when nothing reads it.
type indepEvents struct {
	slots            []int64
	captured, denied []bool
}

// simulate runs one decoupled sensor's compiled loop over slots
// 1..limit (cfg.Slots, or the slot before the sensor's fault) on battery
// b, drawing from its own recharge and decision streams. The decision
// state is the sensor's own capture clock (or slot phase), so the
// single-sensor zero-run fast-forward applies verbatim; the loop
// consumes the streams exactly as runIndependent's interpreted loop does
// (one recharge draw per live slot, one decision draw per
// positive-probability slot), so under any recharge but Bernoulli the
// two are byte-identical and under Bernoulli equal in law, the standard
// energy.Recharge fast-forward clause. Battery samples (o.sample) follow the compiled
// convention: every stride-th awake slot.
func (sp *indepSensorPlan) simulate(cfg *Config, rech energy.Recharge, b *energy.Battery, rSrc, dSrc *rng.Source, ev indepEvents, limit int64, o runObservers) SensorStats {
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	invCap := 1 / cfg.BatteryCap
	bern, isBern := rech.(*energy.Bernoulli)
	var bq, bc float64
	if isBern {
		bq, bc = bern.Q(), bern.C()
	}
	m, probe := o.m, o.probe
	sampleCountdown := int64(math.MaxInt64)
	if o.sample {
		sampleCountdown = batterySampleStride
	}
	eventSlots := ev.slots
	var st SensorStats
	lastCapture := int64(0)
	ei := 0
	t := int64(1)
	for t <= limit {
		var state int64
		if sp.state == StateSinceCapture {
			state = t - lastCapture
		} else {
			state = (t-1)%sp.modulus + 1
		}
		if z := sp.table.ZeroRunFrom(int(state)); z > 0 {
			run := z
			if sp.state == StateSlotPhase {
				if wrap := sp.modulus - state + 1; run > wrap {
					run = wrap
				}
			}
			if left := limit - t + 1; run > left {
				run = left
			}
			rech.FastForward(b, run, rSrc)
			// Events slept through are misses for this sensor unless a
			// peer catches them — the caller decides from the captured
			// flags, so just advance past.
			end := t + run - 1
			for ei < len(eventSlots) && eventSlots[ei] <= end {
				ei++
			}
			if m != nil {
				m.KernelRuns++
				m.KernelSlotsFastForwarded += run
			}
			t += run
			continue
		}
		if isBern {
			if rSrc.Bernoulli(bq) {
				b.Recharge(bc)
			}
		} else {
			b.Recharge(rech.Next(rSrc))
		}
		event := ei < len(eventSlots) && eventSlots[ei] == t
		// Awake slots have p > 0, so the decision draw is always consumed.
		if dSrc.Bernoulli(sp.table.At(int(state))) {
			if !b.CanConsume(cost) {
				st.Denied++
				if event && ev.denied != nil {
					ev.denied[ei] = true
				}
			} else {
				b.Consume(delta1)
				st.Activations++
				if event {
					b.Consume(delta2)
					st.Captures++
					ev.captured[ei] = true
					lastCapture = t
				}
			}
		}
		if event {
			ei++
		}
		sampleCountdown--
		if sampleCountdown == 0 {
			sampleCountdown = batterySampleStride
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
		t++
	}
	st.EnergyConsumed = b.Consumed()
	st.OverflowLost = b.OverflowLost()
	st.FinalBattery = b.Level()
	if m != nil {
		// An activation on an event slot always captures.
		m.WastedActivations += st.Activations - st.Captures
	}
	return st
}

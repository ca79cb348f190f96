package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/obs"
)

// distZoo returns one instance of every internal/dist constructor: the
// paper's IFR Weibulls, the heavy-tailed (DFR) Pareto and LogNormal, the
// memoryless Geometric and Markov renewal, and the table-backed or
// finite-support laws whose hazards reach 1 (Deterministic, UniformInt,
// Empirical) or underflow to 0 at old ages (NegBinomial, Mixture).
func distZoo(t testing.TB) []dist.Interarrival {
	t.Helper()
	var zoo []dist.Interarrival
	add := func(d dist.Interarrival, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		zoo = append(zoo, d)
	}
	add(dist.NewWeibull(40, 3))
	add(dist.NewWeibull(15, 1.5))
	add(dist.NewPareto(2, 10))
	add(dist.NewLogNormal(3, 0.8))
	add(dist.NewGeometric(0.05))
	add(dist.NewMarkovRenewal(0.3, 0.9))
	add(dist.NewNegBinomial(3, 0.1))
	add(dist.NewMixture([]dist.Interarrival{mustWeibull(t, 10, 2), mustWeibull(t, 60, 4)}, []float64{0.4, 0.6}))
	add(dist.NewEmpirical([]float64{0.1, 0, 0.3, 0.2, 0, 0, 0.4}))
	add(dist.NewDeterministic(10))
	add(dist.NewUniformInt(5, 30))
	return zoo
}

// fuzzDist decodes a zoo distribution with fuzzed parameters. The
// parameter ranges keep every law's mean residual life within what
// the stepped oracle resolves in well under a second.
func fuzzDist(kind, a, b uint8) (dist.Interarrival, error) {
	fa, fb := float64(a), float64(b)
	switch kind % 11 {
	case 0:
		return dist.NewWeibull(2+fa/4, 0.5+fb/64)
	case 1:
		return dist.NewPareto(1.2+fa/64, 1+fb/8)
	case 2:
		return dist.NewLogNormal(0.5+fa/80, 0.1+fb/200)
	case 3:
		return dist.NewGeometric((1 + fa) / 256)
	case 4:
		return dist.NewMarkovRenewal((1+fa)/256, fb/256)
	case 5:
		return dist.NewNegBinomial(1+int(a%6), (1+fb)/256)
	case 6:
		w1, err := dist.NewWeibull(2+fa/8, 2)
		if err != nil {
			return nil, err
		}
		w2, err := dist.NewWeibull(20+fb/4, 4)
		if err != nil {
			return nil, err
		}
		return dist.NewMixture([]dist.Interarrival{w1, w2}, []float64{0.3, 0.7})
	case 7:
		weights := make([]float64, 2+int(a%30))
		for i := range weights {
			weights[i] = float64((int(b) + 37*i) % 11)
		}
		weights[len(weights)-1] = 1
		return dist.NewEmpirical(weights)
	case 8:
		return dist.NewDeterministic(1 + int(a%64))
	case 9:
		lo := 1 + int(a%40)
		return dist.NewUniformInt(lo, lo+int(b%60))
	default:
		return dist.NewWeibull(40, 3)
	}
}

// maxResidualLife is the largest finite m(j): the closed form covers a
// belief only where m is finite, so this bounds every m it sums.
func maxResidualLife(d dist.Interarrival) float64 {
	m, _ := newHazardCache(d).residualLife()
	worst := 1.0
	for _, v := range m {
		if !math.IsInf(v, 0) && v > worst {
			worst = v
		}
	}
	return worst
}

// compareTail checks a closed-form evaluation against the stepped
// oracle. Both must agree on ErrNoRenewal. Values must agree within the
// oracle's own truncation bound: it stops once the no-capture
// probability is below piSurvivalTol, dropping at most
// piSurvivalTol·max m of the cycle, which moves U by at most that much
// and E_out by at most (δ1+δ2) times that much.
func compareTail(d dist.Interarrival, p Params, closed *PIEval, closedErr error, oracle *PIEval, oracleErr error) error {
	if errors.Is(closedErr, ErrNoRenewal) != errors.Is(oracleErr, ErrNoRenewal) {
		return fmt.Errorf("ErrNoRenewal disagrees: closed form %v, oracle %v", closedErr, oracleErr)
	}
	if closedErr != nil || oracleErr != nil {
		return nil
	}
	bound := piSurvivalTol * maxResidualLife(d)
	if diff := math.Abs(closed.CaptureProb - oracle.CaptureProb); diff > bound+1e-12*math.Abs(oracle.CaptureProb) {
		return fmt.Errorf("U: closed form %.17g vs oracle %.17g (diff %.3g)", closed.CaptureProb, oracle.CaptureProb, diff)
	}
	if diff := math.Abs(closed.EnergyRate - oracle.EnergyRate); diff > (p.Delta1+p.Delta2)*bound+1e-12*math.Abs(oracle.EnergyRate) {
		return fmt.Errorf("E_out: closed form %.17g vs oracle %.17g (diff %.3g)", closed.EnergyRate, oracle.EnergyRate, diff)
	}
	return nil
}

// checkTail evaluates pol both ways. It reports whether the closed form
// applied, and whether it could have: whether the stepped chain was
// still alive at state from rather than renewed before it.
func checkTail(t *testing.T, d dist.Interarrival, p Params, pol func(int, float64) float64, from int) (applied, reached bool) {
	t.Helper()
	before := obs.CorePITailClosed.Load()
	closed, closedErr := evaluatePI(newHazardCache(d), p, pol, from)
	applied = obs.CorePITailClosed.Load() > before
	oracle, oracleErr := EvaluatePI(d, p, pol)
	if err := compareTail(d, p, closed, closedErr, oracle, oracleErr); err != nil {
		t.Fatalf("%s: %v", d.Name(), err)
	}
	return applied, oracleErr == nil && oracle.Horizon >= from
}

// TestRecoveryTailClosesAcrossZoo: the closed form must match the oracle
// on every zoo law, and must actually apply — including the laws whose
// hazards reach exactly 1 (finite support) or that hold zero-hazard
// ages the belief never reaches.
func TestRecoveryTailClosesAcrossZoo(t *testing.T) {
	p := DefaultParams()
	policies := []ClusteringPolicy{
		{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1},
		{N1: 3, N2: 8, N3: 20, C1: 1, C2: 0.5, C3: 1},
		{N1: 5, N2: 12, N3: 60, C1: 0.3, C2: 1, C3: 0.25},
		{N1: 20, N2: 40, N3: 300, C1: 1, C2: 1, C3: 0},
	}
	for _, d := range distZoo(t) {
		closed, reached := 0, 0
		for _, cp := range policies {
			w := WindowPolicy{Base: cp, Windows: []SleepWindow{{Start: cp.N3 + 2, Len: 7}}}
			for _, pol := range []WindowPolicy{{Base: cp}, w} {
				applied, alive := checkTail(t, d, p, pol.policyFn(), pol.alwaysOnFrom())
				if applied {
					closed++
				}
				if alive {
					reached++
				}
			}
		}
		t.Logf("%s: closed form applied to %d of %d tails reached", d.Name(), closed, reached)
		// NegBinomial's and the Weibull mixture's hazards fall to 0
		// once 1−F(i) rounds to 0, while the ages before keep hazards
		// below 1: the residual life is endless from every age, so
		// these laws must step.
		_, stepsOnly := d.(*dist.NegBinomial)
		if _, mix := d.(*dist.Mixture); mix {
			stepsOnly = true
		}
		if stepsOnly && closed != 0 {
			t.Errorf("%s: closed form applied %d times over an endless residual life", d.Name(), closed)
		}
		if !stepsOnly && (closed != reached || reached == 0) {
			t.Errorf("%s: closed form applied to %d of %d tails reached", d.Name(), closed, reached)
		}
	}
}

// TestRecoveryTailToleranceCanFail is the comparison's mutation check:
// claiming the tail always-on one state early, where C3 < 1 still
// applies (the boundary alwaysOnFrom must get right), has to fail it.
func TestRecoveryTailToleranceCanFail(t *testing.T) {
	p := DefaultParams()
	cp := ClusteringPolicy{N1: 20, N2: 40, N3: 60, C1: 1, C2: 1, C3: 0.5}
	for _, d := range []dist.Interarrival{mustWeibull(t, 40, 3), mustPareto(t, 2, 10)} {
		closed, closedErr := evaluatePI(newHazardCache(d), p, cp.policyFn(), cp.N3)
		oracle, oracleErr := EvaluatePI(d, p, cp.policyFn())
		if compareTail(d, p, closed, closedErr, oracle, oracleErr) == nil {
			t.Errorf("%s: closed form from N3 with C3=%g passed the oracle comparison", d.Name(), cp.C3)
		}
	}
}

// FuzzRecoveryTail drives the closed-form recovery tail against the
// stepped EvaluatePI oracle on a random zoo law and a random clustering
// or window policy.
func FuzzRecoveryTail(f *testing.F) {
	f.Add(uint8(0), uint8(152), uint8(160), uint8(20), uint8(40), uint16(200), uint8(255), uint8(255), uint8(255), uint8(0), uint16(0), uint16(0))
	f.Add(uint8(1), uint8(51), uint8(72), uint8(5), uint8(9), uint16(40), uint8(128), uint8(255), uint8(30), uint8(1), uint16(3), uint16(64))
	f.Add(uint8(5), uint8(2), uint8(25), uint8(10), uint8(20), uint16(30), uint8(255), uint8(255), uint8(255), uint8(2), uint16(0), uint16(5))
	f.Add(uint8(8), uint8(9), uint8(0), uint8(3), uint8(0), uint16(4), uint8(255), uint8(100), uint8(0), uint8(1), uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, kind, a, b, n1, n2span uint8, gap uint16, c1, c2, c3, windows uint8, wStart, wLen uint16) {
		d, err := fuzzDist(kind, a, b)
		if err != nil {
			t.Skip()
		}
		cp := ClusteringPolicy{
			N1: 1 + int(n1%64), C1: float64(c1) / 255,
			C2: float64(c2) / 255, C3: float64(c3) / 255,
		}
		cp.N2 = cp.N1 + int(n2span%64)
		cp.N3 = cp.N2 + 1 + int(gap%512)
		w := WindowPolicy{Base: cp}
		start := cp.N3 + 1
		for k := 0; k < int(windows%3); k++ {
			win := SleepWindow{Start: start + int(wStart%128), Len: 1 + int(wLen%512)}
			w.Windows = append(w.Windows, win)
			start = win.Start + win.Len + 1
		}
		p := DefaultParams()
		closed, closedErr := evaluatePI(newHazardCache(d), p, w.policyFn(), w.alwaysOnFrom())
		oracle, oracleErr := EvaluatePI(d, p, w.policyFn())
		if err := compareTail(d, p, closed, closedErr, oracle, oracleErr); err != nil {
			t.Fatalf("%s, %+v: %v", d.Name(), w, err)
		}
	})
}

// TestPISolverCounters pins the solver work counters' delta per call:
// one evaluation each, finished either in closed form or by stepping,
// and a horizon cap counted (and flagged) only where the chain is cut.
func TestPISolverCounters(t *testing.T) {
	p := DefaultParams()
	d := mustWeibull(t, 40, 3)
	cp := ClusteringPolicy{N1: 20, N2: 40, N3: 60, C1: 1, C2: 1, C3: 1}
	load := func() [4]int64 {
		return [4]int64{obs.CorePIEvals.Load(), obs.CorePITailClosed.Load(),
			obs.CorePITailStepped.Load(), obs.CorePIHorizonCapped.Load()}
	}
	delta := func(name string, want [4]int64, run func()) {
		t.Helper()
		before := load()
		run()
		after := load()
		for i := range want {
			if got := after[i] - before[i]; got != want[i] {
				t.Errorf("%s: counter deltas (evals, closed, stepped, capped) = %v, want %v",
					name, [4]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}, want)
				return
			}
		}
	}
	delta("stepped EvaluatePI", [4]int64{1, 0, 1, 0}, func() {
		if _, err := EvaluatePI(d, p, cp.policyFn()); err != nil {
			t.Fatal(err)
		}
	})
	delta("closed-form evaluatePI", [4]int64{1, 1, 0, 0}, func() {
		if _, err := evaluatePI(newHazardCache(d), p, cp.policyFn(), cp.alwaysOnFrom()); err != nil {
			t.Fatal(err)
		}
	})
	delta("cursor finishRecovery", [4]int64{1, 1, 0, 0}, func() {
		cur := newPICursor(newHazardCache(d), p)
		for i := 1; i < cp.N3; i++ {
			cur.step(cp.At(i))
		}
		if !cur.finishRecovery() {
			t.Fatal("cursor did not renew")
		}
	})
	// A memoryless law with hazard 7e-5 keeps e^-21 ≈ 7.6e-10 of its
	// mass alive after piMaxHorizon always-on states: a truncated, not
	// failed, evaluation.
	slow, err := dist.NewGeometric(7e-5)
	if err != nil {
		t.Fatal(err)
	}
	delta("capped EvaluatePI", [4]int64{1, 0, 1, 1}, func() {
		ev, err := EvaluatePI(slow, p, func(int, float64) float64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Capped || ev.Horizon != piMaxHorizon {
			t.Errorf("capped evaluation: Capped=%v Horizon=%d, want true, %d", ev.Capped, ev.Horizon, piMaxHorizon)
		}
	})
	delta("never-renewing EvaluatePI", [4]int64{1, 0, 1, 1}, func() {
		if _, err := EvaluatePI(d, p, func(int, float64) float64 { return 0 }); !errors.Is(err, ErrNoRenewal) {
			t.Fatalf("never-activating policy: err %v, want ErrNoRenewal", err)
		}
	})
	ev, err := EvaluatePI(d, p, cp.policyFn())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Capped {
		t.Error("converged evaluation flagged Capped")
	}
}

package core

import (
	"fmt"
	"math"
	"sort"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
	"eventcap/internal/obs"
)

// ClusteringPolicy is the paper's heuristic partial-information policy
// π'_PI (Eq. (11)):
//
//	(0, …, 0, C1, 1, …, 1, C2, 0, …, 0, C3, 1, 1, …)
//	 cooling   └── hot ──┘   cooling     └ recovery ┘
//
// States are "slots since the last captured event". N1..N2 is the hot
// region (activate where the hazard concentrates), N2+1..N3−1 the second
// cooling region, and from N3 on the sensor activates aggressively until
// a capture renews the schedule. C1, C2, C3 are the fractional boundary
// probabilities the paper introduces to meet the energy balance exactly.
type ClusteringPolicy struct {
	N1, N2, N3 int
	C1, C2, C3 float64
}

// Validate checks region ordering and probability ranges.
func (cp ClusteringPolicy) Validate() error {
	if cp.N1 < 1 || cp.N2 < cp.N1 || cp.N3 <= cp.N2 {
		return fmt.Errorf("core: clustering regions must satisfy 1 <= N1 <= N2 < N3, got (%d, %d, %d)", cp.N1, cp.N2, cp.N3)
	}
	for _, c := range []float64{cp.C1, cp.C2, cp.C3} {
		if c < 0 || c > 1 || math.IsNaN(c) {
			return fmt.Errorf("core: clustering boundary probability %g out of [0,1]", c)
		}
	}
	return nil
}

// At returns the activation probability in state i. Boundary precedence:
// the hot-entry probability C1 wins when N1 == N2.
func (cp ClusteringPolicy) At(i int) float64 {
	switch {
	case i < cp.N1:
		return 0
	case i == cp.N1:
		return cp.C1
	case i < cp.N2:
		return 1
	case i == cp.N2:
		return cp.C2
	case i < cp.N3:
		return 0
	case i == cp.N3:
		return cp.C3
	default:
		return 1
	}
}

// policyFn adapts the policy to the EvaluatePI callback shape.
func (cp ClusteringPolicy) policyFn() func(i int, hazard float64) float64 {
	return func(i int, _ float64) float64 { return cp.At(i) }
}

// alwaysOnFrom returns the first state from which the policy activates
// with probability 1 until a capture (0 for an invalid policy).
func (cp ClusteringPolicy) alwaysOnFrom() int {
	if cp.Validate() != nil {
		return 0
	}
	if cp.C3 == 1 { // floateq:ok region-boundary saturation: recovery starts at N3 only when C3 is the exact constant 1
		return cp.N3
	}
	return cp.N3 + 1
}

// Vector materializes the policy as an activation Vector with an
// always-on tail.
func (cp ClusteringPolicy) Vector() Vector {
	prefix := make([]float64, cp.N3)
	for i := 1; i <= cp.N3; i++ {
		prefix[i-1] = cp.At(i)
	}
	return Vector{Prefix: prefix, Tail: 1}
}

// PIEval is the analytic performance of a partial-information policy on
// the f-chain (states = slots since last capture), under the energy
// assumption.
type PIEval struct {
	// CaptureProb is U(π) = y_1·μ (Section IV-B2).
	CaptureProb float64
	// EnergyRate is E_out(π) = Σ y_i c_i (δ1 + β̂_i δ2) per slot.
	EnergyRate float64
	// ExpectedCycle is 1/y_1, the mean number of slots between captures.
	ExpectedCycle float64
	// Horizon is the f-state at which the evaluation stopped: where the
	// no-capture probability became negligible, or where the always-on
	// tail was summed in closed form.
	Horizon int
	// Capped reports that the chain was cut at piMaxHorizon with the
	// no-capture probability still in [piSurvivalTol, 1e-6): the sums
	// are truncated, not converged. (At 1e-6 or above the evaluation
	// fails with ErrNoRenewal instead.)
	Capped bool
}

// evaluation knobs for the f-chain sum.
const (
	piSurvivalTol = 1e-13
	piMaxHorizon  = 300000
	// tailHalvings is the number of halvings of the no-capture
	// probability that take it below piSurvivalTol (2^-44 < 1e-13);
	// see BeliefFilter.recoveryTail.
	tailHalvings = 44
)

// ErrNoRenewal is returned when a partial-information policy never
// captures (e.g. it never activates), so its f-chain has no stationary
// distribution.
var ErrNoRenewal = fmt.Errorf("core: policy never renews (no captures within horizon)")

// EvaluatePI computes the exact f-chain performance of an arbitrary
// partial-information activation rule pol: called once per f-state i in
// increasing order with the state's hazard β̂_i, it returns the activation
// probability c_i (stateless policies ignore the hazard; the belief-
// threshold policy is defined by it). The evaluation propagates the
// no-capture survival S_i = Π(1 − c_j β̂_j) together with the age belief,
// using the product-form stationary distribution y_i = y_1·S_{i−1}:
//
//	U = μ / Σ_i S_{i−1},   E_out = Σ_i S_{i−1}·c_i(δ1 + β̂_i δ2) / Σ_i S_{i−1}.
//
// It steps every state until the no-capture probability falls below
// piSurvivalTol, so it serves any policy; the clustering and window
// optimizers use the closed-form tail of evaluatePI instead, and this
// step-by-step loop is its test oracle.
func EvaluatePI(d dist.Interarrival, p Params, pol func(i int, hazard float64) float64) (*PIEval, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return evaluatePI(newHazardCache(d), p, pol, 0)
}

// evaluatePI is EvaluatePI on a shared hazard cache. onFrom > 0 declares
// that pol activates with probability 1 in every state from onFrom on.
// The chain is then stepped only up to onFrom, and the remaining states
// are summed in closed form through the mean residual life m (Appendix
// B's renewal route): with S the survival and b the belief at onFrom,
//
//	cycle += S·Σ_j b(j)m(j),   energy += S·(δ1·Σ_j b(j)m(j) + δ2),
//
// the δ2 term because every surviving path is captured exactly once.
// Where the belief holds mass the closed form cannot cover (see
// BeliefFilter.recoveryTail) the evaluation steps on as EvaluatePI does.
// Each call counts once in core.pi.evals and once in either
// core.pi.tail_closed or core.pi.tail_stepped; a call that reaches
// piMaxHorizon also counts in core.pi.horizon_capped.
func evaluatePI(hc *hazardCache, p Params, pol func(i int, hazard float64) float64, onFrom int) (*PIEval, error) {
	filter := newBeliefFilter(hc)
	survival := 1.0
	var cycle, energy numeric.KahanSum
	horizon := 0
	closed := false
	for i := 1; i <= piMaxHorizon; i++ {
		if onFrom > 0 && i >= onFrom {
			if tail, ok := filter.recoveryTail(piMaxHorizon - i + 1); ok {
				cycle.Add(survival * tail)
				energy.Add(survival * (p.Delta1*tail + p.Delta2))
				survival, horizon, closed = 0, i, true
				break
			}
			onFrom = 0
		}
		hazard := filter.EventProb()
		c := pol(i, hazard)
		if c < 0 {
			c = 0
		}
		if c > 1 {
			c = 1
		}
		cycle.Add(survival)
		if c > 0 {
			energy.Add(survival * c * (p.Delta1 + p.Delta2*hazard))
		}
		survival *= 1 - c*hazard
		horizon = i
		if survival < piSurvivalTol {
			break
		}
		filter.AdvanceNoCapture(c)
	}
	capped := survival >= piSurvivalTol
	countEval(closed, capped)
	if survival >= 1e-6 {
		return nil, ErrNoRenewal
	}
	total := cycle.Value()
	if !(total > 0) {
		return nil, ErrNoRenewal
	}
	return &PIEval{
		CaptureProb:   hc.d.Mean() / total,
		EnergyRate:    energy.Value() / total,
		ExpectedCycle: total,
		Horizon:       horizon,
		Capped:        capped,
	}, nil
}

// countEval records one f-chain evaluation in the solver work counters.
func countEval(closed, capped bool) {
	obs.CorePIEvals.Inc()
	if closed {
		obs.CorePITailClosed.Inc()
	} else {
		obs.CorePITailStepped.Inc()
	}
	if capped {
		obs.CorePIHorizonCapped.Inc()
	}
}

// piCursor is an incremental form of EvaluatePI used by the coarse region
// search: it walks f-states one at a time and can be cloned mid-chain, so
// one shared cooling prefix serves every recovery-start candidate. Plain
// float64 sums are sufficient at these horizons (≤ ~10^4 terms in [0, 40]).
type piCursor struct {
	filter        *BeliefFilter
	p             Params
	states        int // f-states walked
	survival      float64
	cycle, energy float64
}

func newPICursor(hc *hazardCache, p Params) *piCursor {
	return &piCursor{filter: newBeliefFilter(hc), p: p, survival: 1}
}

func (c *piCursor) clone() *piCursor {
	out := *c
	out.filter = c.filter.Clone()
	return &out
}

// done reports that the no-capture probability is negligible: further
// states contribute nothing.
func (c *piCursor) done() bool { return c.survival < piSurvivalTol }

// step advances one f-state with activation probability prob.
func (c *piCursor) step(prob float64) {
	if c.done() {
		return
	}
	c.states++
	hazard := c.filter.EventProb()
	c.cycle += c.survival
	if prob > 0 {
		c.energy += c.survival * prob * (c.p.Delta1 + c.p.Delta2*hazard)
	}
	c.survival *= 1 - prob*hazard
	if !c.done() {
		c.filter.AdvanceNoCapture(prob)
	}
}

// finishRecovery completes the chain with the sensor always on from the
// next state, in closed form as evaluatePI does, or step by step where
// the belief does not allow it. It counts as one evaluation and reports
// whether the chain renewed (false for defective tails).
func (c *piCursor) finishRecovery() bool {
	if !c.done() {
		if tail, ok := c.filter.recoveryTail(piMaxHorizon - c.states); ok {
			c.cycle += c.survival * tail
			c.energy += c.survival * (c.p.Delta1*tail + c.p.Delta2)
			c.survival = 0
			countEval(true, false)
			return true
		}
	}
	for c.states < piMaxHorizon && !c.done() {
		c.step(1)
	}
	countEval(false, !c.done())
	return c.survival < 1e-6
}

// result returns (U, E_out) for the completed chain.
func (c *piCursor) result(mu float64) (u, eout float64) {
	if c.cycle <= 0 {
		return 0, 0
	}
	return mu / c.cycle, c.energy / c.cycle
}

// PIResult is an optimized clustering policy with its analytic
// performance.
type PIResult struct {
	Policy      ClusteringPolicy
	Vector      Vector
	CaptureProb float64
	EnergyRate  float64
	Saturated   bool
}

// ClusteringOptions tunes the region search. The zero value selects
// sensible defaults.
type ClusteringOptions struct {
	// SearchLimit bounds N2 (default: the 0.999 quantile of the
	// inter-arrival distribution, capped at 400).
	SearchLimit int
	// MaxGap bounds N3 − N2 (default 4096).
	MaxGap int
	// CoarsePoints is the number of grid points per region coordinate in
	// the first pass (default 16).
	CoarsePoints int
}

func (o *ClusteringOptions) fill(d dist.Interarrival) {
	if o.SearchLimit <= 0 {
		limit := 1
		for limit < 400 && d.CDF(limit) < 0.999 {
			limit++
		}
		o.SearchLimit = limit
	}
	if o.MaxGap <= 0 {
		o.MaxGap = 4096
	}
	if o.CoarsePoints <= 0 {
		o.CoarsePoints = 16
	}
}

// coarseGrid builds the n1/n2 grid for the coarse pass: an even grid of
// the configured resolution plus hazard landmarks (the first state with
// positive hazard and the hazard peak) that structured distributions such
// as Pareto need to be hit exactly.
func coarseGrid(d dist.Interarrival, limit, step int) []int {
	seen := make(map[int]bool, limit/step+8)
	var points []int
	add := func(i int) {
		if i >= 1 && i <= limit && !seen[i] {
			seen[i] = true
			points = append(points, i)
		}
	}
	for i := 1; i <= limit; i += step {
		add(i)
	}
	firstPositive, peakIdx := 0, 1
	peakVal := -1.0
	for i := 1; i <= limit; i++ {
		h := d.Hazard(i)
		if firstPositive == 0 && h > 1e-12 {
			firstPositive = i
		}
		if h > peakVal {
			peakIdx, peakVal = i, h
		}
	}
	if firstPositive > 0 {
		add(firstPositive)
		add(firstPositive + 1)
	}
	add(peakIdx)
	sort.Ints(points)
	return points
}

// OptimizeClustering computes π'_PI(e): it searches the (N1, N2, N3)
// region structure by coarse enumeration ("increase n3 gradually and
// enumerate n1 and n2", Section IV-B2) followed by hill-climbing
// refinement, then spends any residual energy budget on the fractional
// boundary probabilities C1/C2/C3 by bisection.
func OptimizeClustering(d dist.Interarrival, e float64, p Params, opts ClusteringOptions) (*PIResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if e < 0 || math.IsNaN(e) {
		return nil, fmt.Errorf("core: recharge rate must be >= 0, got %g", e)
	}
	mu := d.Mean()
	if e >= p.SaturationRate(mu) {
		// The sensor can afford to be always on: every event is captured.
		cp := ClusteringPolicy{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1}
		return &PIResult{
			Policy:      cp,
			Vector:      Vector{Tail: 1},
			CaptureProb: 1,
			EnergyRate:  p.SaturationRate(mu),
			Saturated:   true,
		}, nil
	}
	opts.fill(d)
	hc := newHazardCache(d)

	eval := func(cp ClusteringPolicy) (*PIEval, bool) {
		ev, err := evaluatePI(hc, p, cp.policyFn(), cp.alwaysOnFrom())
		if err != nil {
			return nil, false
		}
		return ev, ev.EnergyRate <= e*(1+1e-9)+1e-12
	}

	type candidate struct {
		cp ClusteringPolicy
		u  float64
	}
	best := candidate{u: -1}
	consider := func(cp ClusteringPolicy) {
		if cp.Validate() != nil {
			return
		}
		if cp.N3-cp.N2 > opts.MaxGap {
			return
		}
		if ev, ok := eval(cp); ok && ev.CaptureProb > best.u {
			best = candidate{cp: cp, u: ev.CaptureProb}
		}
	}

	// Coarse pass over deterministic regions (C1 = C2 = C3 = 1). For each
	// hot region the cooling prefix is shared across all gap candidates
	// via an incremental cursor, so the pass costs O(hot + MaxGap +
	// gaps·recovery) per (n1, n2) rather than re-walking the chain.
	// Several diverse leaders are kept and hill-climbed separately: the
	// grid can put structurally different shapes (recovery-only vs
	// hot-window) within a step of each other.
	limit := opts.SearchLimit
	step := limit / opts.CoarsePoints
	if step < 1 {
		step = 1
	}
	gridPoints := coarseGrid(d, limit, step)
	var gaps []int
	for g := 1; g <= opts.MaxGap; g *= 2 {
		gaps = append(gaps, g)
	}
	mu = d.Mean()
	const maxLeaders = 4
	var leaders []candidate
	offer := func(c candidate) {
		// Replace the worst leader from the same n1 neighborhood, or
		// append/displace the weakest when diverse.
		for i := range leaders {
			near := c.cp.N1-leaders[i].cp.N1 <= step && leaders[i].cp.N1-c.cp.N1 <= step
			if near {
				if c.u > leaders[i].u {
					leaders[i] = c
				}
				return
			}
		}
		if len(leaders) < maxLeaders {
			leaders = append(leaders, c)
			return
		}
		worst := 0
		for i := range leaders {
			if leaders[i].u < leaders[worst].u {
				worst = i
			}
		}
		if c.u > leaders[worst].u {
			leaders[worst] = c
		}
	}
	for _, n1 := range gridPoints {
		for _, n2 := range gridPoints {
			if n2 < n1 {
				continue
			}
			cur := newPICursor(hc, p)
			for i := 1; i <= n2; i++ {
				c := 0.0
				if i >= n1 {
					c = 1
				}
				cur.step(c)
			}
			walked := 0
			for _, g := range gaps {
				for ; walked < g-1; walked++ {
					cur.step(0)
				}
				branch := cur.clone()
				if !branch.finishRecovery() {
					continue
				}
				u, eout := branch.result(mu)
				if eout <= e*(1+1e-9)+1e-12 {
					// Widening the gap only lengthens the cycle, lowering
					// both U and E_out, so the first feasible gap is the
					// best one for this hot region.
					offer(candidate{
						cp: ClusteringPolicy{N1: n1, N2: n2, N3: n2 + g, C1: 1, C2: 1, C3: 1},
						u:  u,
					})
					break
				}
			}
		}
	}
	for _, l := range leaders {
		if l.u > best.u {
			best = l
		}
	}
	if best.u < 0 {
		// Nothing feasible even with maximal cooling: fall back to a
		// pure recovery policy starting as late as the search allows.
		consider(ClusteringPolicy{N1: 1, N2: 1, N3: 1 + opts.MaxGap, C1: 0, C2: 0, C3: 1})
		if best.u < 0 {
			return nil, fmt.Errorf("core: no feasible clustering policy at e=%g for %s (try a larger MaxGap)", e, d.Name())
		}
	}

	// Hill-climbing refinement with shrinking steps, starting from every
	// coarse leader; `consider` keeps the global best across all climbs.
	for _, start := range leaders {
		local := start
		for s := step; s >= 1; s /= 2 {
			improved := true
			for improved {
				improved = false
				cur := local.cp
				gap := cur.N3 - cur.N2
				neighbors := []ClusteringPolicy{
					{N1: cur.N1 - s, N2: cur.N2, N3: cur.N2 + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1 + s, N2: cur.N2, N3: cur.N2 + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2 - s, N3: cur.N2 - s + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2 + s, N3: cur.N2 + s + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2, N3: cur.N3 - s, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2, N3: cur.N3 + s, C1: 1, C2: 1, C3: 1},
				}
				for _, nb := range neighbors {
					if nb.Validate() != nil || nb.N3-nb.N2 > opts.MaxGap {
						continue // honor the configured cooling-gap bound
					}
					if ev, ok := eval(nb); ok && ev.CaptureProb > local.u+1e-12 {
						local = candidate{cp: nb, u: ev.CaptureProb}
						improved = true
					}
				}
			}
		}
		if local.u > best.u {
			best = local
		}
	}

	// Fractional boundary refinement: spend residual budget via C1/C2/C3.
	best.cp = refineFractional(hc, e, p, best.cp)
	ev, err := evaluatePI(hc, p, best.cp.policyFn(), best.cp.alwaysOnFrom())
	if err != nil {
		return nil, fmt.Errorf("evaluating refined clustering policy: %w", err)
	}
	return &PIResult{
		Policy:      best.cp,
		Vector:      best.cp.Vector(),
		CaptureProb: ev.CaptureProb,
		EnergyRate:  ev.EnergyRate,
	}, nil
}

// refineFractional greedily extends the best deterministic region policy
// with fractional boundary probabilities: widening the hot region at
// either edge or starting recovery one slot earlier, each scaled by
// bisection so E_out stays within e. Capture probability is nondecreasing
// in every activation probability (more activation shortens renewal
// cycles), so the largest feasible boundary value is the best one.
func refineFractional(hc *hazardCache, e float64, p Params, cp ClusteringPolicy) ClusteringPolicy {
	baseU := func(c ClusteringPolicy) float64 {
		ev, err := evaluatePI(hc, p, c.policyFn(), c.alwaysOnFrom())
		if err != nil || ev.EnergyRate > e*(1+1e-9)+1e-12 {
			return -1
		}
		return ev.CaptureProb
	}
	cur := cp
	curU := baseU(cur)
	for round := 0; round < 3; round++ {
		type variant struct {
			make func(c float64) ClusteringPolicy
			ok   bool
		}
		variants := []variant{
			{ // extend hot region one slot earlier with probability c
				make: func(c float64) ClusteringPolicy {
					v := cur
					v.N1--
					v.C1 = c
					return v
				},
				// floateq:ok region-boundary saturation: C1 is set to the exact constant 1
				ok: cur.N1 > 1 && cur.C1 == 1,
			},
			{ // extend hot region one slot later with probability c
				make: func(c float64) ClusteringPolicy {
					v := cur
					v.N2++
					v.C2 = c
					return v
				},
				// floateq:ok region-boundary saturation: C2 is set to the exact constant 1
				ok: cur.N2+1 < cur.N3 && cur.C2 == 1,
			},
			{ // start recovery one slot earlier with probability c
				make: func(c float64) ClusteringPolicy {
					v := cur
					v.N3--
					v.C3 = c
					return v
				},
				// floateq:ok region-boundary saturation: C3 is set to the exact constant 1
				ok: cur.N3-1 > cur.N2 && cur.C3 == 1,
			},
		}
		type result struct {
			cp ClusteringPolicy
			u  float64
		}
		bestVar := result{u: curU}
		for _, v := range variants {
			if !v.ok {
				continue
			}
			cost := func(c float64) float64 {
				vp := v.make(c)
				ev, err := evaluatePI(hc, p, vp.policyFn(), vp.alwaysOnFrom())
				if err != nil {
					return math.Inf(1)
				}
				return ev.EnergyRate
			}
			c, feasible := numeric.MaximizeMonotoneBudget(cost, e*(1+1e-9)+1e-12, 1e-6)
			if !feasible || c <= 1e-9 {
				continue
			}
			vp := v.make(c)
			if vp.Validate() != nil {
				continue
			}
			if u := baseU(vp); u > bestVar.u+1e-12 {
				bestVar = result{cp: vp, u: u}
			}
		}
		if bestVar.u <= curU+1e-12 {
			break
		}
		cur, curU = bestVar.cp, bestVar.u
	}
	return cur
}

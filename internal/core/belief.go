package core

import (
	"math"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
)

// BeliefFilter is the exact Bayes filter over the hidden renewal age used
// by the partial-information analysis. The age is the number of slots
// since the last true event (age 1 means the last event happened in the
// previous slot). It realizes Appendix B's hazards in slotted time:
// instead of evaluating the renewal integrals G_t(x) directly, the filter
// propagates the posterior over ages through the policy's action sequence
// and reads P(event this slot) off the hazards β_j.
//
// Update equations, writing b for the current posterior, β̂ = Σ b(j)β_j,
// and c for the activation probability used this slot:
//
//	capture               → reset to the point mass at age 1
//	no capture (prob 1−cβ̂) → b'(1)  = β̂(1−c) / Z      (missed event)
//	                         b'(j+1) = b(j)(1−β_j) / Z  (no event)
//
// where Z = β̂(1−c) + Σ_j b(j)(1−β_j) is the mass of the update before
// normalization, which equals 1−cβ̂ in exact arithmetic. Normalizing by
// the computed Z rather than by 1−cβ̂ keeps the belief at unit mass
// after every step: the old-age trim below removes up to 1e-14 per
// step, and dividing by 1−cβ̂ ≈ 0 (old ages under c=1) would amplify
// that deficit geometrically until the belief vanished.
//
// For deterministic c ∈ {0, 1} this is exactly the paper's construction;
// for fractional c it marginalizes the policy's randomization.
//
// Hazards β_j are cached on first use: the filter is re-run thousands of
// times by the clustering-region optimizer and distribution hazards
// (Weibull, Pareto) cost several transcendental calls each.
type BeliefFilter struct {
	hc *hazardCache
	b  []float64 // b[j-1] = P(age == j)

	scratch []float64 // reused buffer for updates

	prob      float64 // memoized EventProb for the current belief
	probValid bool
}

// maxBeliefAges caps the posterior's age support. Mass that would age
// past the cap is folded into an absorbing elder bucket (see
// AdvanceNoCapture); for every distribution in the paper the induced
// hazard error is below 1e-5.
const maxBeliefAges = 512

// hazardCache memoizes a distribution's hazards and its mean-residual-
// life vector; clones of a filter, and every evaluation of one optimizer
// run, share one cache (single-threaded use, like the filter itself).
type hazardCache struct {
	d  dist.Interarrival
	hz []float64

	// m[j-1] is the mean residual life at age j under an always-on
	// sensor: the expected number of f-states, the current one included,
	// until the next capture. reach[j-1] is the largest m over the ages
	// reachable from j without a capture. Both are built on first use.
	m, reach []float64
}

func newHazardCache(d dist.Interarrival) *hazardCache {
	return &hazardCache{d: d, hz: make([]float64, 0, 256)}
}

func (h *hazardCache) at(j int) float64 {
	for len(h.hz) < j {
		h.hz = append(h.hz, h.d.Hazard(len(h.hz)+1))
	}
	return h.hz[j-1]
}

// residualLife returns the vectors m and reach (see hazardCache), built
// in O(maxBeliefAges) on first use by the backward recursion
//
//	m(j) = 1 + (1−β_j)·m(j+1),   m(maxBeliefAges) = 1/β_maxBeliefAges,
//
// the elder bucket being absorbing like the filter's. Where β_j = 1 the
// chain surely renews, so m(j) = 1 whatever lies beyond; this closes
// finite-support distributions. Where a zero hazard makes the wait
// endless, m is +Inf.
func (h *hazardCache) residualLife() (m, reach []float64) {
	if h.m != nil {
		return h.m, h.reach
	}
	h.at(maxBeliefAges)
	m = make([]float64, maxBeliefAges)
	reach = make([]float64, maxBeliefAges)
	last := maxBeliefAges - 1
	m[last] = 1 / h.hz[last]
	reach[last] = m[last]
	for j := last - 1; j >= 0; j-- {
		if beta := h.hz[j]; beta >= 1 {
			m[j], reach[j] = 1, 1
		} else {
			m[j] = 1 + (1-beta)*m[j+1]
			reach[j] = math.Max(m[j], reach[j+1])
		}
	}
	h.m, h.reach = m, reach
	return m, reach
}

// NewBeliefFilter returns a filter initialized to a fresh capture
// (age 1 with certainty).
func NewBeliefFilter(d dist.Interarrival) *BeliefFilter {
	return newBeliefFilter(newHazardCache(d))
}

func newBeliefFilter(hc *hazardCache) *BeliefFilter {
	f := &BeliefFilter{hc: hc, b: make([]float64, 1, 64)}
	f.b[0] = 1
	return f
}

// Clone returns an independent copy of the filter sharing the hazard
// cache with the original.
func (f *BeliefFilter) Clone() *BeliefFilter {
	out := &BeliefFilter{
		hc:        f.hc,
		b:         make([]float64, len(f.b), cap(f.b)),
		prob:      f.prob,
		probValid: f.probValid,
	}
	copy(out.b, f.b)
	return out
}

// Reset returns the filter to the fresh-capture state.
func (f *BeliefFilter) Reset() {
	f.b = f.b[:1]
	f.b[0] = 1
	f.probValid = false
}

// hazardAt returns β_j from the shared cache.
func (f *BeliefFilter) hazardAt(j int) float64 { return f.hc.at(j) }

// EventProb returns β̂ = P(an event occurs in the current slot), the
// partial-information hazard of the paper's f-chain. The value is
// memoized until the belief changes. Plain summation suffices here: the
// belief has at most a few hundred entries in [0, 1].
func (f *BeliefFilter) EventProb() float64 {
	if f.probValid {
		return f.prob
	}
	var sum float64
	for j, w := range f.b {
		if w != 0 {
			sum += w * f.hazardAt(j+1)
		}
	}
	if sum > 1 {
		sum = 1
	}
	if sum < 0 {
		sum = 0
	}
	f.prob = sum
	f.probValid = true
	return sum
}

// AdvanceNoCapture applies one slot of dynamics conditioned on "no
// capture" when the sensor activated with probability c. For c == 0 this
// is the unobserved prediction step; for c == 1 it conditions on the
// sensor having seen no event.
func (f *BeliefFilter) AdvanceNoCapture(c float64) {
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	hazard := f.EventProb()
	n := len(f.b)
	if cap(f.scratch) < n+1 {
		f.scratch = make([]float64, n+1, 2*(n+1))
	}
	next := f.scratch[:n+1]
	for i := range next {
		next[i] = 0
	}
	f.probValid = false
	next[0] = hazard * (1 - c)
	for j := 0; j < n; j++ {
		w := f.b[j]
		if w == 0 {
			continue
		}
		to := j + 1
		if to >= maxBeliefAges {
			// Absorbing elder bucket: heavy-tailed (DFR) distributions
			// keep non-negligible mass at arbitrarily old ages; folding
			// it at maxBeliefAges with that age's hazard biases β̂ by
			// O(mass(age>cap)·hazard(cap)) ≈ 1e-5 for Pareto(2,10),
			// while keeping updates O(cap).
			to = maxBeliefAges - 1
		}
		next[to] += w * (1 - f.hazardAt(j+1))
	}
	if len(next) > maxBeliefAges {
		next = next[:maxBeliefAges]
	}
	var mass float64
	for _, w := range next {
		mass += w
	}
	if mass <= 1e-300 {
		// No-capture is (numerically) impossible: the event was certain
		// and the sensor active. Keep a defensive reset; callers treat
		// this path as probability ~0 anyway.
		f.scratch = f.b
		f.b = next[:1]
		f.b[0] = 1
		return
	}
	inv := 1 / mass
	for i := range next {
		next[i] *= inv
	}
	// Trim the negligible old-age tail so long unobserved stretches stay
	// O(support) instead of O(elapsed slots). The dropped mass is below
	// 1e-14 per step, far under the 1e-13 survival tolerance of the
	// f-chain sums.
	var tail float64
	end := len(next)
	for end > 1 {
		tail += next[end-1]
		if tail >= 1e-14 {
			break
		}
		end--
	}
	f.scratch = f.b
	f.b = next[:end]
}

// recoveryTail returns Σ_j b(j)·m(j), the expected number of f-states,
// the current one included, until the next capture if the sensor stays
// on from now (m from hazardCache.residualLife). ok is false when the
// sum cannot stand in for stepping the chain: the belief holds mass at
// an age whose wait is endless, or slow enough that a stepped chain of
// at most steps states might end above piSurvivalTol. From every age
// the belief can reach, the mean wait is at most worst, so by Markov's
// inequality each further 2·worst states survive with probability at
// most 1/2; tailHalvings halvings take any survival below the tolerance.
func (f *BeliefFilter) recoveryTail(steps int) (sum float64, ok bool) {
	m, reach := f.hc.residualLife()
	worst := 0.0
	for j, w := range f.b {
		if w == 0 {
			continue
		}
		sum += w * m[j]
		worst = math.Max(worst, reach[j])
	}
	return sum, 2*tailHalvings*worst <= float64(steps)
}

// Belief returns a copy of the posterior over ages (index j-1 holds
// P(age == j)).
func (f *BeliefFilter) Belief() []float64 {
	out := make([]float64, len(f.b))
	copy(out, f.b)
	return out
}

// TotalMass returns the posterior's total probability mass (1 up to
// roundoff); exported for invariant tests.
func (f *BeliefFilter) TotalMass() float64 {
	return numeric.Sum(f.b)
}

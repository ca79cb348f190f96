package core

import (
	"math"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
	"eventcap/internal/renewal"
	"eventcap/internal/rng"
)

// TestBeliefMatchesRenewalMass cross-validates the filter against the
// independent renewal-theory implementation (the DESIGN.md substitution
// argument): after k fully unobserved slots since a capture, the event
// probability must equal the renewal mass function m(k+1)... shifted by
// one because the capture itself was the renewal at relative slot 0.
func TestBeliefMatchesRenewalMass(t *testing.T) {
	for _, weights := range [][]float64{
		{0.2, 0.5, 0.3},
		{0, 0, 1},
		{0.6, 0.4},
		{0.1, 0.1, 0.1, 0.3, 0.4},
	} {
		d := mustEmpirical(t, weights)
		tab, err := dist.Tabulate(d, 1e-12, 1000)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := renewal.New(tab.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		f := NewBeliefFilter(d)
		for step := 0; step < 60; step++ {
			// At the beginning of slot step+1 (0 unobserved slots means
			// the capture was last slot): P(event) = m(step+1).
			got := f.EventProb()
			want := proc.Mass(step + 1)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("weights %v, step %d: filter %v vs renewal mass %v",
					weights, step, got, want)
			}
			f.AdvanceNoCapture(0)
		}
	}
}

// TestBeliefActiveEqualsHazard: when the sensor is active every slot and
// captures nothing, the age is known exactly, so the filtered event
// probability must equal the distribution's hazard β_i.
func TestBeliefActiveEqualsHazard(t *testing.T) {
	d := mustWeibull(t, 12, 2.5)
	f := NewBeliefFilter(d)
	for i := 1; i <= 30; i++ {
		if got, want := f.EventProb(), d.Hazard(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("state %d: filter %v vs hazard %v", i, got, want)
		}
		f.AdvanceNoCapture(1)
	}
}

// massTolerance is how far the belief's total mass may drift from 1
// after any single step.
const massTolerance = 1e-12

// activationSchedule returns the c sequence a mass test drives the
// filter with: always off, always on (old ages then have β≈1, so the
// no-capture mass 1−cβ̂ is nearly 0), or uniform random.
func activationSchedule(mode string, seed uint64) func() float64 {
	src := rng.New(seed, 7)
	switch mode {
	case "c=0":
		return func() float64 { return 0 }
	case "c=1":
		return func() float64 { return 1 }
	default:
		return src.Float64
	}
}

// firstMassViolation advances a belief steps times and returns the
// first step after which its mass is off 1 by more than massTolerance
// (-1 if none), with that mass.
func firstMassViolation(advance func(c float64), mass func() float64, next func() float64, steps int) (int, float64) {
	for i := 1; i <= steps; i++ {
		advance(next())
		if m := mass(); !(math.Abs(m-1) <= massTolerance) {
			return i, m
		}
	}
	return -1, 1
}

// TestBeliefMassConserved: the filter normalizes by the true post-update
// mass, so its belief keeps unit mass after every step on every law of
// the distribution zoo under every activation schedule.
func TestBeliefMassConserved(t *testing.T) {
	for _, d := range distZoo(t) {
		for _, mode := range []string{"c=0", "c=1", "random"} {
			t.Run(d.Name()+"/"+mode, func(t *testing.T) {
				f := NewBeliefFilter(d)
				advance := func(c float64) {
					f.AdvanceNoCapture(c)
					if p := f.EventProb(); p < 0 || p > 1 {
						t.Fatalf("event probability %v", p)
					}
				}
				if step, m := firstMassViolation(advance, f.TotalMass, activationSchedule(mode, 7), 2000); step >= 0 {
					t.Fatalf("step %d: belief mass %v", step, m)
				}
			})
		}
	}
}

// legacyFilter is the pre-fix update, which divided by 1−cβ̂ instead of
// the true post-update mass; it exists only as the mutation case of the
// mass invariant.
type legacyFilter struct {
	hc *hazardCache
	b  []float64
}

func (f *legacyFilter) advance(c float64) {
	var hazard float64
	for j, w := range f.b {
		hazard += w * f.hc.at(j+1)
	}
	hazard = math.Min(math.Max(hazard, 0), 1)
	denom := 1 - c*hazard
	next := make([]float64, len(f.b)+1)
	if denom <= 1e-300 {
		f.b = []float64{1}
		return
	}
	next[0] = hazard * (1 - c) / denom
	for j, w := range f.b {
		next[min(j+1, maxBeliefAges-1)] += w * (1 - f.hc.at(j+1)) / denom
	}
	next = next[:min(len(next), maxBeliefAges)]
	var tail float64
	end := len(next)
	for end > 1 {
		tail += next[end-1]
		if tail >= 1e-14 {
			break
		}
		end--
	}
	f.b = next[:end]
}

func (f *legacyFilter) mass() float64 { return numeric.Sum(f.b) }

// TestBeliefMassCheckCatchesLegacyNormalizer: the invariant must fail
// the old 1−cβ̂ normalizer. Under the clustering policy N1=N2=46, N3=260
// on Weibull(40,3) the belief is spread over many ages when recovery
// starts; always on from there, each step's trim deficit is amplified
// by 1/(1−β̂) with β̂→1, and the belief vanishes by state 414.
func TestBeliefMassCheckCatchesLegacyNormalizer(t *testing.T) {
	cp := ClusteringPolicy{N1: 46, N2: 46, N3: 260, C1: 1, C2: 1, C3: 1}
	schedule := func() func() float64 {
		i := 0
		return func() float64 { i++; return cp.At(i) }
	}
	d := mustWeibull(t, 40, 3)
	f := &legacyFilter{hc: newHazardCache(d), b: []float64{1}}
	step, _ := firstMassViolation(f.advance, f.mass, schedule(), 2000)
	if step < 0 {
		t.Fatal("legacy normalizer kept unit mass for 2000 steps; the invariant cannot fail")
	}
	next := schedule()
	f = &legacyFilter{hc: newHazardCache(d), b: []float64{1}}
	for i := 1; i <= 414; i++ {
		f.advance(next())
	}
	if m := f.mass(); m != 0 {
		t.Fatalf("legacy normalizer: mass %v after state 414, want 0", m)
	}
	// The fixed filter holds unit mass along the same schedule.
	g := NewBeliefFilter(d)
	if step, m := firstMassViolation(g.AdvanceNoCapture, g.TotalMass, schedule(), 2000); step >= 0 {
		t.Fatalf("fixed filter: mass %v after state %d", m, step)
	}
	t.Logf("legacy normalizer first breaks the invariant after state %d", step)
}

func TestBeliefReset(t *testing.T) {
	d := mustWeibull(t, 8, 2)
	f := NewBeliefFilter(d)
	for i := 0; i < 10; i++ {
		f.AdvanceNoCapture(0.5)
	}
	f.Reset()
	if got, want := f.EventProb(), d.Hazard(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("after reset EventProb %v, want β1 %v", got, want)
	}
	b := f.Belief()
	if len(b) != 1 || b[0] != 1 {
		t.Fatalf("after reset belief %v, want [1]", b)
	}
}

func TestBeliefClampsActivation(t *testing.T) {
	d := mustWeibull(t, 8, 2)
	f := NewBeliefFilter(d)
	f.AdvanceNoCapture(-3) // treated as 0
	f.AdvanceNoCapture(7)  // treated as 1
	if m := f.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("mass %v after clamped updates", m)
	}
}

// TestBeliefMatchesMonteCarlo simulates the true hidden process under a
// mixed activation pattern and compares empirical conditional event
// frequencies with the filter's β̂_i sequence.
func TestBeliefMatchesMonteCarlo(t *testing.T) {
	d := mustEmpirical(t, []float64{0.15, 0.35, 0.3, 0.2})
	pattern := []float64{0, 1, 0.5, 1, 0, 0, 1, 1} // c_i for f-states 1..8

	// Analytic hazards along the no-capture path.
	f := NewBeliefFilter(d)
	want := make([]float64, len(pattern))
	for i, c := range pattern {
		want[i] = f.EventProb()
		f.AdvanceNoCapture(c)
	}

	// Monte Carlo: run the hidden renewal chain; at each f-state apply
	// the pattern; record event occurrence frequencies conditioned on
	// reaching the state without a capture.
	src := rng.New(99, 3)
	occur := make([]int, len(pattern))
	visits := make([]int, len(pattern))
	const episodes = 400000
	for ep := 0; ep < episodes; ep++ {
		age := 1
		for i := 0; i < len(pattern); i++ {
			visits[i]++
			event := src.Bernoulli(d.Hazard(age))
			active := src.Bernoulli(pattern[i])
			if event {
				occur[i]++
				age = 1
				if active {
					break // captured: episode renews
				}
			} else {
				age++
			}
		}
	}
	for i := range pattern {
		if visits[i] < 1000 {
			continue
		}
		got := float64(occur[i]) / float64(visits[i])
		sigma := math.Sqrt(want[i]*(1-want[i])/float64(visits[i])) + 1e-9
		if math.Abs(got-want[i]) > 6*sigma {
			t.Errorf("f-state %d: MC hazard %v vs filter %v (±%v)", i+1, got, want[i], 6*sigma)
		}
	}
}

func BenchmarkBeliefAdvance(b *testing.B) {
	d := mustWeibull(b, 40, 3)
	f := NewBeliefFilter(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AdvanceNoCapture(0.3)
		if i%1000 == 999 {
			f.Reset()
		}
	}
}

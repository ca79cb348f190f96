package core

import (
	"reflect"
	"testing"

	"eventcap/internal/dist"
)

func TestWindowPolicyAt(t *testing.T) {
	w := WindowPolicy{
		Base:    ClusteringPolicy{N1: 2, N2: 3, N3: 5, C1: 1, C2: 1, C3: 1},
		Windows: []SleepWindow{{Start: 7, Len: 2}},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{
		1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, // base clustering
		7: 0, 8: 0, // extra sleep window
		9: 1, 20: 1, // tail resumes
	}
	for i, c := range want {
		if got := w.At(i); got != c {
			t.Errorf("At(%d) = %v, want %v", i, got, c)
		}
	}
	v := w.Vector()
	for i := 0; i <= 25; i++ {
		if v.At(i) != w.At(i) {
			t.Fatalf("Vector.At(%d) mismatch", i)
		}
	}
}

func TestWindowPolicyValidate(t *testing.T) {
	base := ClusteringPolicy{N1: 2, N2: 3, N3: 5, C1: 1, C2: 1, C3: 1}
	bad := []WindowPolicy{
		{Base: base, Windows: []SleepWindow{{Start: 5, Len: 1}}},                     // window at N3 (no active recovery slot)
		{Base: base, Windows: []SleepWindow{{Start: 7, Len: 0}}},                     // empty window
		{Base: base, Windows: []SleepWindow{{Start: 7, Len: 2}, {Start: 9, Len: 1}}}, // touching windows
		{Base: ClusteringPolicy{}, Windows: nil},                                     // invalid base
	}
	for k, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: invalid window policy accepted: %+v", k, w)
		}
	}
	ok := WindowPolicy{Base: base, Windows: []SleepWindow{{Start: 6, Len: 2}, {Start: 10, Len: 3}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid window policy rejected: %v", err)
	}
}

// TestRefineWindowsNeverWorse: the refinement must keep energy
// feasibility and never lose capture probability relative to the base
// clustering policy; the FI optimum still bounds it from above.
func TestRefineWindowsNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("slow solver sweep")
	}
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	for _, e := range []float64{0.3, 0.6} {
		base, err := OptimizeClustering(d, e, p, ClusteringOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RefineWindows(d, e, p, base, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ref.CaptureProb < base.CaptureProb-1e-9 {
			t.Errorf("e=%v: refinement lost capture probability: %v < %v",
				e, ref.CaptureProb, base.CaptureProb)
		}
		if ref.EnergyRate > e*(1+1e-6)+1e-9 {
			t.Errorf("e=%v: refined policy exceeds energy budget: %v", e, ref.EnergyRate)
		}
		fi, err := GreedyFI(d, e, p)
		if err != nil {
			t.Fatal(err)
		}
		if ref.CaptureProb > fi.CaptureProb+1e-6 {
			t.Errorf("e=%v: refined PI policy %v beats the FI bound %v",
				e, ref.CaptureProb, fi.CaptureProb)
		}
		if err := ref.Policy.Validate(); err != nil {
			t.Errorf("e=%v: refined policy invalid: %v", e, err)
		}
	}
}

func TestRefineWindowsZeroBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("slow solver sweep")
	}
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	base, err := OptimizeClustering(d, 0.4, p, ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RefineWindows(d, 0.4, p, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Policy.Windows) != 0 {
		t.Fatal("maxWindows=0 must add no windows")
	}
}

func TestRefineWindowsErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("slow solver sweep")
	}
	d := mustWeibull(t, 40, 3)
	if _, err := RefineWindows(d, 0.4, DefaultParams(), nil, 1); err == nil {
		t.Fatal("nil base accepted")
	}
	base, err := OptimizeClustering(d, 0.4, DefaultParams(), ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RefineWindows(d, 0.4, Params{}, base, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestRefineWindowsGolden pins the window search's outcome on two
// workloads, with cmd/policycalc -refine's options. Weibull(15,1.5) at
// e=0.3 gains from one sleep window late in the recovery tail. On
// Weibull(40,3) at e=0.1 no window helps: the stepped chain's survival
// falls below piSurvivalTol a few hundred states into recovery, so the
// windows a leaking belief once produced near state 300,000 must not
// reappear. The first case also guards the scan range: taking it from a
// closed-form evaluation, which stops at the always-on state, would
// leave no candidates and insert nothing.
func TestRefineWindowsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow solver sweep")
	}
	p := DefaultParams()
	for _, tc := range []struct {
		d    *dist.Weibull
		e    float64
		want []SleepWindow
	}{
		{mustWeibull(t, 15, 1.5), 0.3, []SleepWindow{{Start: 1006, Len: 128}}},
		{mustWeibull(t, 40, 3), 0.1, nil},
	} {
		base, err := OptimizeClustering(tc.d, tc.e, p, ClusteringOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RefineWindows(tc.d, tc.e, p, base, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Policy.Windows, tc.want) {
			t.Errorf("%s e=%g: windows %+v, want %+v", tc.d.Name(), tc.e, ref.Policy.Windows, tc.want)
		}
		if gain := ref.CaptureProb - ref.BaseCaptureProb; len(tc.want) > 0 && !(gain > 0) {
			t.Errorf("%s e=%g: window gain %g, want > 0", tc.d.Name(), tc.e, gain)
		}
	}
}

package experiments

import (
	"strings"
	"testing"

	"eventcap/internal/obs"
)

// TestAblationRechargeStaysCompiled is a counter gate on engine routing,
// independent of machine speed: every recharge process in
// ablation-recharge (Bernoulli, Periodic, Constant, ClippedGaussian,
// OnOff) fast-forwards, so a batched run of the experiment must never
// decline the compiled engines. It asserts no sim.engine.fallback.*
// increment and no reference-loop span, per-run or batched.
func TestAblationRechargeStaysCompiled(t *testing.T) {
	exp, ok := ByID("ablation-recharge")
	if !ok {
		t.Fatal("ablation-recharge not registered")
	}
	root := obs.BeginSpan("experiment")
	before := obs.Snapshot()
	if _, err := exp.Run(Options{Quick: true, Slots: 5_000, Seed: 3, Batch: 2, Workers: 1, Span: root}); err != nil {
		t.Fatal(err)
	}
	diff := obs.Diff(before, obs.Snapshot())
	root.End()
	for k, v := range diff {
		if strings.HasPrefix(k, "sim.engine.fallback.") && v != 0 {
			t.Errorf("%s rose by %v", k, v)
		}
	}
	if v := diff["sim.runs.batch"]; v == 0 {
		t.Errorf("no run reached the batch engine (sim.runs.batch +%v)", v)
	}
	var walk func(p *obs.Phase)
	walk = func(p *obs.Phase) {
		if p.Name == "exec.reference" || p.Name == "exec.batch_fallback" {
			t.Errorf("span %s ran %d time(s)", p.Name, p.Count)
		}
		for _, c := range p.Phases {
			walk(c)
		}
	}
	walk(root.Breakdown())
}

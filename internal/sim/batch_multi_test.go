package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

// TestBatchMultiPerRepMatchesKernel pins the fleet batch contract:
// replication r of a round-robin batch must reproduce the multi-kernel
// run at Seed + r bit for bit. Unlike the single-sensor worker the fleet
// worker has no awake-run batching, so this holds for Bernoulli recharge
// too, with metrics on or off.
func TestBatchMultiPerRepMatchesKernel(t *testing.T) {
	const reps = 48
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }},
		{"bernoulli-0.5-1", func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }},
	}
	kc := kernelCases(t)[0]
	for _, rc := range recharges {
		for _, metrics := range []bool{false, true} {
			const n = 3
			cfg := multiKernelConfig(t, kc, rc.make, n, 100, 42)
			cfg.Slots = 10_000
			cfg.Metrics = metrics
			cfg.Engine = EngineBatch
			cfg.Batch = reps
			batch, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s metrics=%v: batch: %v", rc.name, metrics, err)
			}
			if len(batch.Sensors) != reps*n {
				t.Fatalf("%s: batch returned %d sensor blocks, want %d", rc.name, len(batch.Sensors), reps*n)
			}
			var events, captures int64
			for r := 0; r < reps; r++ {
				sub := multiKernelConfig(t, kc, rc.make, n, 100, 42+uint64(r))
				sub.Slots = 10_000
				sub.Metrics = metrics
				sub.Engine = EngineKernel
				one, err := Run(sub)
				if err != nil {
					t.Fatalf("%s replication %d: %v", rc.name, r, err)
				}
				if !reflect.DeepEqual(batch.Sensors[r*n:(r+1)*n], one.Sensors) {
					t.Fatalf("%s metrics=%v replication %d diverged:\nbatch  %+v\nkernel %+v",
						rc.name, metrics, r, batch.Sensors[r*n:(r+1)*n], one.Sensors)
				}
				events += one.Events
				captures += one.Captures
			}
			if batch.Events != events || batch.Captures != captures {
				t.Errorf("%s: batch totals %d/%d, paired kernel sum %d/%d",
					rc.name, batch.Events, batch.Captures, events, captures)
			}
		}
	}
}

// TestBatchIndepPerRepMatchesIndependent is the decoupled-fleet pairing:
// replication r of an independent batch must reproduce the compiled
// independent engine at Seed + r bit for bit (both paths fast-forward
// through the same per-sensor streams).
func TestBatchIndepPerRepMatchesIndependent(t *testing.T) {
	const reps = 24
	recharges := append(exactRecharges(),
		rechargeCase{"bernoulli-0.4-1", func() energy.Recharge { r, _ := energy.NewBernoulli(0.4, 1); return r }})
	for _, rc := range recharges {
		const n = 3
		cfg := independentKernelConfig(t, rc.make, n, 7)
		cfg.Slots = 10_000
		cfg.Engine = EngineBatch
		cfg.Batch = reps
		batch, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: batch: %v", rc.name, err)
		}
		if len(batch.Sensors) != reps*n {
			t.Fatalf("%s: batch returned %d sensor blocks, want %d", rc.name, len(batch.Sensors), reps*n)
		}
		var events, captures int64
		for r := 0; r < reps; r++ {
			sub := independentKernelConfig(t, rc.make, n, 7+uint64(r))
			sub.Slots = 10_000
			sub.Engine = EngineKernel
			one, err := Run(sub)
			if err != nil {
				t.Fatalf("%s replication %d: %v", rc.name, r, err)
			}
			if !reflect.DeepEqual(batch.Sensors[r*n:(r+1)*n], one.Sensors) {
				t.Fatalf("%s replication %d diverged:\nbatch       %+v\nindependent %+v",
					rc.name, r, batch.Sensors[r*n:(r+1)*n], one.Sensors)
			}
			events += one.Events
			captures += one.Captures
		}
		if batch.Events != events || batch.Captures != captures {
			t.Errorf("%s: batch totals %d/%d, paired independent sum %d/%d",
				rc.name, batch.Events, batch.Captures, events, captures)
		}
	}
}

// TestBatchMultiShardingInvariance checks that worker count and chunk
// size never touch the random streams of a fleet batch: every sharding
// must produce byte-identical results.
func TestBatchMultiShardingInvariance(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	shard := func(workers, chunk int, mutate func(*Config)) *Result {
		t.Helper()
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 4, 100, 13)
		cfg.Slots = 5_000
		cfg.Metrics = true
		cfg.Engine = EngineBatch
		cfg.Batch = 40
		cfg.Workers = workers
		cfg.BatchChunk = chunk
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := shard(1, 0, nil)
	for _, tc := range []struct{ workers, chunk int }{{1, 7}, {4, 1}, {4, 13}, {8, 40}} {
		got := shard(tc.workers, tc.chunk, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d chunk=%d diverged from sequential run", tc.workers, tc.chunk)
		}
	}
	// Same invariance for a decoupled fleet.
	ishard := func(workers, chunk int) *Result {
		t.Helper()
		cfg := independentKernelConfig(t, newRech, 3, 13)
		cfg.Slots = 5_000
		cfg.Metrics = true
		cfg.Engine = EngineBatch
		cfg.Batch = 40
		cfg.Workers = workers
		cfg.BatchChunk = chunk
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	iwant := ishard(1, 0)
	for _, tc := range []struct{ workers, chunk int }{{4, 1}, {8, 13}} {
		if got := ishard(tc.workers, tc.chunk); !reflect.DeepEqual(got, iwant) {
			t.Errorf("independent workers=%d chunk=%d diverged from sequential run", tc.workers, tc.chunk)
		}
	}
}

// TestBatchMultiForcedRejectsIneligible enumerates the fleet-specific
// batch rejections; EngineAuto with Batch set must still run the
// configuration through the per-replication fallback.
func TestBatchMultiForcedRejectsIneligible(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"mode-blocks", func(c *Config) { c.Mode = ModeBlocks; c.BlockLen = 5 }},
		{"tracer", func(c *Config) { c.Tracer = trace.New(nil, trace.NewFlightRecorder(32)) }},
		{"independent fault", func(c *Config) {
			c.Mode = ModeAll
			c.Info = PartialInfo
			c.FailAt = map[int]int64{0: 10}
		}},
	}
	for _, tc := range cases {
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 3, 100, 1)
		cfg.Slots = 2_000
		cfg.Batch = 4
		tc.mutate(&cfg)
		cfg.Engine = EngineBatch
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: forced batch did not reject", tc.name)
		}
		cfg.Engine = EngineAuto
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}

// TestBatchMatchesReferenceExactRecharge closes the loop from the batch
// engine to the oracle: under deterministic or per-slot stepped recharge,
// replication r of a B=4 batch reproduces the reference engine at
// Seed + r bit for bit, for the single sensor, the round-robin fleet and
// the decoupled ModeAll+PartialInfo fleet.
func TestBatchMatchesReferenceExactRecharge(t *testing.T) {
	const reps = 4
	kc := kernelCases(t)[0]
	shapes := []struct {
		name string
		cfg  func(rc rechargeCase, seed uint64) Config
	}{
		{"single", func(rc rechargeCase, seed uint64) Config { return kernelBaseConfig(t, kc, rc.make, 100, seed) }},
		{"round-robin", func(rc rechargeCase, seed uint64) Config { return multiKernelConfig(t, kc, rc.make, 3, 100, seed) }},
		{"independent", func(rc rechargeCase, seed uint64) Config { return independentKernelConfig(t, rc.make, 3, seed) }},
	}
	for _, sh := range shapes {
		for _, rc := range exactRecharges() {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := sh.cfg(rc, seed)
				cfg.Slots = 10_000
				cfg.Engine = EngineBatch
				cfg.Batch = reps
				batch, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed=%d: batch: %v", sh.name, rc.name, seed, err)
				}
				n := cfg.N
				if n == 0 {
					n = 1
				}
				var events, captures int64
				for r := 0; r < reps; r++ {
					sub := sh.cfg(rc, seed+uint64(r))
					sub.Slots = 10_000
					sub.Engine = EngineReference
					ref, err := Run(sub)
					if err != nil {
						t.Fatalf("%s/%s seed=%d replication %d: reference: %v", sh.name, rc.name, seed, r, err)
					}
					if !reflect.DeepEqual(batch.Sensors[r*n:(r+1)*n], ref.Sensors) {
						t.Fatalf("%s/%s seed=%d replication %d diverged:\nbatch     %+v\nreference %+v",
							sh.name, rc.name, seed, r, batch.Sensors[r*n:(r+1)*n], ref.Sensors)
					}
					events += ref.Events
					captures += ref.Captures
				}
				if batch.Events != events || batch.Captures != captures {
					t.Errorf("%s/%s seed=%d: batch totals %d/%d, reference sum %d/%d",
						sh.name, rc.name, seed, batch.Events, batch.Captures, events, captures)
				}
			}
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// feedDataset streams every response of ds into inc in a scrambled order.
func feedDataset(t *testing.T, inc *ShardedIncremental, ds *crowd.Dataset, seed int64) {
	t.Helper()
	for _, s := range shuffledStream(t, ds, seed) {
		if err := inc.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalMatchesBatch is the bit-identity contract of the
// streaming path: streaming the responses in any order, into any
// arrangement — one shard, several shards, or a StatsAccumulator over
// disjoint exports — must reproduce batch EvaluateWorkers exactly (==,
// deliberately not a tolerance) through every evaluation entry point,
// against the serial and the Parallel batch run alike. The merges are
// integer-counter addition and every arrangement solves through
// solveMany, so any divergence at all is a routing, merge or solver bug.
func TestIncrementalMatchesBatch(t *testing.T) {
	type evaluator interface {
		Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error)
		EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error)
		EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error)
	}
	const workers, nodes = 8, 3
	optSets := []EvalOptions{
		{Confidence: 0.9},
		{Confidence: 0.9, Weights: UniformWeights},
		// Pairs share about 150 × 0.65² ≈ 63 tasks, so 60 drops many.
		{Confidence: 0.8, MinCommon: 60},
	}
	subset := []int{5, 0, 3}
	for seed := int64(0); seed < 5; seed++ {
		ds, _, err := sim.Binary{Tasks: 150, Workers: workers, Density: 0.65}.Generate(randx.NewSource(300 + seed))
		if err != nil {
			t.Fatal(err)
		}
		subs := shuffledStream(t, ds, seed)

		type arrangement struct {
			name   string
			ev     evaluator
			export *StatsExport
		}
		var arrangements []arrangement
		for _, shards := range []int{1, 2, 7} {
			s, err := NewShardedIncremental(workers, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				if err := s.Add(sub.w, sub.t, sub.r); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("seed %d shards %d", seed, shards)
			if s.Tasks() != ds.Tasks() || s.Responses() != len(subs) {
				t.Fatalf("%s: Tasks/Responses %d/%d, want %d/%d", label, s.Tasks(), s.Responses(), ds.Tasks(), len(subs))
			}
			if got, want := s.MajorityDisagreement(), ds.MajorityDisagreement(); !slices.Equal(got, want) {
				t.Errorf("%s: disagreement %v, batch %v", label, got, want)
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				for task := 0; task < ds.Tasks(); task++ {
					if snap.Response(w, task) != ds.Response(w, task) {
						t.Fatalf("%s: snapshot mismatch at (%d,%d)", label, w, task)
					}
				}
			}
			arrangements = append(arrangements, arrangement{label, s, s.ExportStats()})
		}
		acc, err := NewStatsAccumulator(workers)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*ShardedIncremental, nodes)
		for i := range parts {
			if parts[i], err = NewIncremental(workers); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range subs {
			if err := parts[sub.t%nodes].Add(sub.w, sub.t, sub.r); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range parts {
			if err := acc.Merge(p.ExportStats()); err != nil {
				t.Fatal(err)
			}
		}
		arrangements = append(arrangements, arrangement{fmt.Sprintf("seed %d accumulator", seed), acc, acc.Export()})

		// Every arrangement holds the same statistics as the one-shard
		// evaluator, up to bitset capacity.
		for _, a := range arrangements[1:] {
			if !a.export.Equal(arrangements[0].export) {
				t.Errorf("%s: export differs from the one-shard export", a.name)
			}
		}

		for _, opts := range optSets {
			want, err := EvaluateWorkers(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			par := opts
			par.Parallel = true
			parallel, err := EvaluateWorkers(ds, par)
			if err != nil {
				t.Fatal(err)
			}
			sameEstimates(t, fmt.Sprintf("seed %d %+v: Parallel batch", seed, opts), parallel, want)
			for _, a := range arrangements {
				label := fmt.Sprintf("%s %+v", a.name, opts)
				all, err := a.ev.EvaluateAll(opts)
				if err != nil {
					t.Fatal(err)
				}
				sameEstimates(t, label+": EvaluateAll", all, want)
				one := make([]WorkerEstimate, workers)
				for w := range one {
					if one[w], err = a.ev.Evaluate(w, opts); err != nil {
						t.Fatal(err)
					}
				}
				sameEstimates(t, label+": Evaluate", one, want)
				// Subset results align with the input order.
				sub, err := a.ev.EvaluateSubset(subset, opts)
				if err != nil {
					t.Fatal(err)
				}
				wantSub := make([]WorkerEstimate, len(subset))
				for i, w := range subset {
					wantSub[i] = want[w]
				}
				sameEstimates(t, label+": EvaluateSubset", sub, wantSub)
			}
		}
	}
}

func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(2); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("2 workers: err = %v", err)
	}
	inc, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(5, 0, crowd.Yes); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := inc.Add(0, -1, crowd.Yes); err == nil {
		t.Error("negative task accepted")
	}
	if err := inc.Add(0, 0, crowd.Response(3)); err == nil {
		t.Error("non-binary response accepted")
	}
	if err := inc.Add(0, 0, crowd.Yes); err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(0, 0, crowd.No); err == nil {
		t.Error("duplicate response accepted")
	}
	if _, err := inc.Evaluate(9, EvalOptions{Confidence: 0.9}); err == nil {
		t.Error("out-of-range evaluation accepted")
	}
	if _, err := inc.Evaluate(0, EvalOptions{Confidence: 0}); err == nil {
		t.Error("confidence 0 accepted")
	}
}

func TestIncrementalCounters(t *testing.T) {
	inc, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	// Task 0: all three agree; task 1: worker 0 disagrees with 1.
	mustAdd := func(w, task int, r crowd.Response) {
		t.Helper()
		if err := inc.Add(w, task, r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 0, crowd.Yes)
	mustAdd(1, 0, crowd.Yes)
	mustAdd(2, 0, crowd.Yes)
	mustAdd(0, 1, crowd.Yes)
	mustAdd(1, 1, crowd.No)
	m := inc.snapshot()
	if got := m.pair(0, 1); got.Common != 2 || got.Agree != 1 {
		t.Errorf("pair(0,1) = %+v", got)
	}
	if got := m.pair(0, 2); got.Common != 1 || got.Agree != 1 {
		t.Errorf("pair(0,2) = %+v", got)
	}
	if got := m.common3(0, 1, 2); got != 1 {
		t.Errorf("common3 = %d", got)
	}
	if inc.Tasks() != 2 || inc.Responses() != 5 {
		t.Errorf("Tasks=%d Responses=%d", inc.Tasks(), inc.Responses())
	}
}

func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	src := randx.NewSource(7)
	ds, _, err := sim.Binary{Tasks: 60, Workers: 5, Density: 0.6}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	feedDataset(t, inc, ds, 1)
	snap, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		for task := 0; task < 60; task++ {
			if snap.Response(w, task) != ds.Response(w, task) {
				t.Fatalf("snapshot mismatch at (%d,%d)", w, task)
			}
		}
	}
	empty, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Snapshot(); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty snapshot err = %v", err)
	}
}

func TestIncrementalMajorityDisagreement(t *testing.T) {
	src := randx.NewSource(8)
	ds, _, err := sim.Binary{Tasks: 200, Workers: 5, ErrorRates: []float64{0.1, 0.1, 0.1, 0.1, 0.45}}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	feedDataset(t, inc, ds, 2)
	want := ds.MajorityDisagreement()
	got := inc.MajorityDisagreement()
	for w := range want {
		if math.Abs(got[w]-want[w]) > 1e-12 {
			t.Errorf("worker %d: %v vs batch %v", w, got[w], want[w])
		}
	}
}

func TestIncrementalIntervalsShrinkWithData(t *testing.T) {
	// As more tasks stream in, the interval for a worker should tighten.
	src := randx.NewSource(9)
	ds, _, err := sim.Binary{Tasks: 400, Workers: 5}.Generate(src)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(5)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	for task := 0; task < 400; task++ {
		for w := 0; w < 5; w++ {
			if err := inc.Add(w, task, ds.Response(w, task)); err != nil {
				t.Fatal(err)
			}
		}
		if task == 49 || task == 199 || task == 399 {
			est, err := inc.Evaluate(0, EvalOptions{Confidence: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			if est.Err != nil {
				t.Fatalf("task %d: %v", task, est.Err)
			}
			sizes = append(sizes, est.Interval.Size())
		}
	}
	if !(sizes[2] < sizes[1] && sizes[1] < sizes[0]) {
		t.Errorf("interval sizes not shrinking: %v", sizes)
	}
}

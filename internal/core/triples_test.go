package core

import (
	"math"
	"testing"

	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// raggedSources streams a simulated crowd into a two-shard evaluator with
// workers 0, 6 and the last cut off after tasks 40, 130 and 70, so their
// attendance bitsets end words before everyone else's (as the first, a
// middle and the last row of the triple table), and returns the
// merged streaming statistics together with the batch cache of the same
// responses.
func raggedSources(t *testing.T, workers, tasks int, seed int64) (*streamStats, *fullStatsCache) {
	t.Helper()
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: 0.7}.Generate(randx.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewShardedIncremental(workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shuffledStream(t, ds, seed) {
		if (s.w == 0 && s.t > 40) || (s.w == 6 && s.t > 130) || (s.w == workers-1 && s.t > 70) {
			continue
		}
		if err := inc.Add(s.w, s.t, s.r); err != nil {
			t.Fatal(err)
		}
	}
	stream := inc.snapshot()
	full := len(stream.responded[1])
	for _, w := range []int{0, 6, workers - 1} {
		if len(stream.responded[w]) >= full {
			t.Fatalf("worker %d's bitset has %d words, not fewer than worker 1's %d", w, len(stream.responded[w]), full)
		}
	}
	snap, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return stream, newFullStatsCache(snap)
}

// sameDeltas asserts two solves agree bit for bit: worker, triple count,
// error text, and the Float64bits of every mean and deviation.
func sameDeltas(t *testing.T, label string, got, want []WorkerDelta) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Worker != w.Worker || g.Triples != w.Triples || (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s: result %d is (worker %d, %d triples, err %v), want (worker %d, %d triples, err %v)",
				label, i, g.Worker, g.Triples, g.Err, w.Worker, w.Triples, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s: result %d error %q, want %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if math.Float64bits(g.Est.Mean) != math.Float64bits(w.Est.Mean) ||
			math.Float64bits(g.Est.Dev) != math.Float64bits(w.Est.Dev) {
			t.Fatalf("%s: worker %d estimate (%v, %v) not bit-identical to (%v, %v)",
				label, w.Worker, g.Est.Mean, g.Est.Dev, w.Est.Mean, w.Est.Dev)
		}
	}
}

// TestTripleTableMatchesDirect pins the triple table to the direct path:
// every packed count equals the three-way popcount (and3Count for streams,
// Attendance.Common3 for batch) under every argument order, ragged bitsets
// included, at 1 and 4 build goroutines; and solves with the table are
// bit-identical to solves without it, on both sources, for queries on
// both sides of the m/3 cost rule, with both weight strategies and a
// MinCommon that excludes the cut-off workers.
func TestTripleTableMatchesDirect(t *testing.T) {
	const workers, tasks = 13, 300
	stream, batch := raggedSources(t, workers, tasks, 41)
	direct := map[string]statsSource{"stream": stream, "batch": batch}
	for name, src := range direct {
		for _, g := range []int{1, 4} {
			v := newSolveStats(src, workers, true, g)
			for i := 0; i < workers; i++ {
				for j := i + 1; j < workers; j++ {
					for k := j + 1; k < workers; k++ {
						want := src.common3(i, j, k)
						if name == "stream" {
							if w := and3Count(stream.responded[i], stream.responded[j], stream.responded[k]); w != want {
								t.Fatalf("stream common3(%d,%d,%d) = %d, and3Count %d", i, j, k, want, w)
							}
						} else if w := batch.att.Common3(i, j, k); w != want {
							t.Fatalf("batch common3(%d,%d,%d) = %d, Common3 %d", i, j, k, want, w)
						}
						for _, p := range [][3]int{{i, j, k}, {i, k, j}, {j, i, k}, {j, k, i}, {k, i, j}, {k, j, i}} {
							if got := v.common3(p[0], p[1], p[2]); got != want {
								t.Fatalf("%s, %d goroutines: table c%v = %d, direct %d", name, g, p, got, want)
							}
						}
					}
				}
			}
		}
	}

	// The cost rule flips at a third of the crowd.
	if !useTripleTable(workers, 5) || useTripleTable(workers, 4) {
		t.Fatalf("useTripleTable(13, 5), (13, 4) = %v, %v; want true, false",
			useTripleTable(workers, 5), useTripleTable(workers, 4))
	}
	queries := [][]int{allWorkers(workers), {0, 1, 4, 7, 12}, {1, 6, 3}, {0}}
	for name, src := range direct {
		for _, weights := range []WeightStrategy{OptimalWeights, UniformWeights} {
			for _, minCommon := range []int{0, 60} {
				opts := EvalOptions{Confidence: 0.9, Weights: weights, MinCommon: minCommon}
				for _, q := range queries {
					want := solveWith(newSolveStats(src, workers, false, 1), q, opts, 1)
					for _, g := range []int{1, 4} {
						got := solveWith(newSolveStats(src, workers, true, g), q, opts, g)
						sameDeltas(t, name+" table", got, want)
						sameDeltas(t, name+" solveMany", solveMany(src, workers, q, opts, g), want)
					}
					if minCommon == 60 && q[0] == 0 && want[0].Err == nil {
						t.Fatalf("%s: worker 0 shares at most 41 tasks but was solved at MinCommon 60", name)
					}
				}
			}
		}
	}
}

// TestSolveStatsMatchesSource checks a wide view's flat pair arrays
// against the source they were copied from, diagonal included.
func TestSolveStatsMatchesSource(t *testing.T) {
	stream, batch := raggedSources(t, 9, 200, 5)
	for name, src := range map[string]statsSource{"stream": stream, "batch": batch} {
		v := newSolveStats(src, 9, true, 1)
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				want := src.pair(i, j)
				if got := v.common[i*9+j]; got != want.Common {
					t.Fatalf("%s: common(%d,%d) = %d, want %d", name, i, j, got, want.Common)
				}
				if got := v.rate[i*9+j]; math.Float64bits(got) != math.Float64bits(want.Rate()) {
					t.Fatalf("%s: rate(%d,%d) = %v, want %v", name, i, j, got, want.Rate())
				}
			}
		}
	}
}

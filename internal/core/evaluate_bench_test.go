package core

import (
	"testing"

	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// referenceAccumulator builds the reference evaluate shape — 64 workers ×
// 4000 tasks at density 0.8 — as a StatsAccumulator holding one export of
// a streaming evaluator, the arrangement a cluster coordinator solves.
func referenceAccumulator(b *testing.B) *StatsAccumulator {
	b.Helper()
	const workers, tasks = 64, 4000
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: 0.8}.Generate(randx.NewSource(7))
	if err != nil {
		b.Fatal(err)
	}
	inc, err := NewIncremental(workers)
	if err != nil {
		b.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for t := 0; t < tasks; t++ {
			if ds.Attempted(w, t) {
				if err := inc.Add(w, t, ds.Response(w, t)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	acc, err := NewStatsAccumulator(workers)
	if err != nil {
		b.Fatal(err)
	}
	if err := acc.Merge(inc.ExportStats()); err != nil {
		b.Fatal(err)
	}
	return acc
}

// BenchmarkEvaluateReference times the A2 solve at the reference shape:
// "all" is EvaluateAll (every worker, triple-table path, GOMAXPROCS
// goroutines) and "one" a single worker's query (direct three-way counts,
// solved inline). Run with -cpu 1 for the serial figure and -cpuprofile to
// split it across the Lemma 4 build, the triple counts and the Lemma 5 LU.
func BenchmarkEvaluateReference(b *testing.B) {
	acc := referenceAccumulator(b)
	opts := EvalOptions{Confidence: 0.9}
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := acc.EvaluateAll(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := acc.Evaluate(i%acc.Workers(), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

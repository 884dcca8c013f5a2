package core

import (
	"math"
	"reflect"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// exportTestStream generates a reproducible response stream.
func exportTestStream(t *testing.T, workers, tasks int, seed int64) []struct {
	w, task int
	r       crowd.Response
} {
	t.Helper()
	src := randx.NewSource(seed)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: 0.8}.Generate(src)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var subs []struct {
		w, task int
		r       crowd.Response
	}
	for w := 0; w < workers; w++ {
		for task := 0; task < tasks; task++ {
			if ds.Attempted(w, task) {
				subs = append(subs, struct {
					w, task int
					r       crowd.Response
				}{w, task, ds.Response(w, task)})
			}
		}
	}
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// sameEstimates asserts two estimate slices are bit-identical: equal worker
// and triple counts, identical interval bit patterns, and matching error
// text (errors are built independently on each side, so pointer equality
// cannot hold).
func sameEstimates(t *testing.T, label string, got, want []WorkerEstimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Worker != w.Worker || g.Triples != w.Triples {
			t.Fatalf("%s: estimate %d is (worker %d, %d triples), want (worker %d, %d triples)",
				label, i, g.Worker, g.Triples, w.Worker, w.Triples)
		}
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s: estimate %d error mismatch: %v vs %v", label, i, g.Err, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s: estimate %d error text %q, want %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if math.Float64bits(g.Interval.Lo) != math.Float64bits(w.Interval.Lo) ||
			math.Float64bits(g.Interval.Hi) != math.Float64bits(w.Interval.Hi) {
			t.Fatalf("%s: estimate %d interval [%v, %v] not bit-identical to [%v, %v]",
				label, i, g.Interval.Lo, g.Interval.Hi, w.Interval.Lo, w.Interval.Hi)
		}
	}
}

// TestStatsAccumulatorExact is the exactness contract behind the
// distributed layer: partition a stream by task across several evaluators,
// export each, merge the exports, and the accumulator's intervals are
// bit-identical to one Incremental fed everything.
func TestStatsAccumulatorExact(t *testing.T) {
	const workers, tasks, nodes = 9, 240, 3
	subs := exportTestStream(t, workers, tasks, 71)

	full, err := NewIncremental(workers)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*ShardedIncremental, nodes)
	for i := range parts {
		if parts[i], err = NewIncremental(workers); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subs {
		if err := full.Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
		if err := parts[s.task%nodes].Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
	}

	acc, err := NewStatsAccumulator(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if err := acc.Merge(p.ExportStats()); err != nil {
			t.Fatal(err)
		}
	}
	if acc.Responses() != full.Responses() {
		t.Fatalf("accumulator has %d responses, want %d", acc.Responses(), full.Responses())
	}
	if acc.Tasks() != full.Tasks() {
		t.Fatalf("accumulator has %d tasks, want %d", acc.Tasks(), full.Tasks())
	}

	opts := EvalOptions{Confidence: 0.9}
	want, err := full.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.EvaluateAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, "merged vs single-process", got, want)

	// Re-export of the merged state must equal the full evaluator's export.
	if !reflect.DeepEqual(trimBitsets(acc.Export()), trimBitsets(full.ExportStats())) {
		t.Fatal("accumulator re-export differs from single-process export")
	}
}

// trimBitsets drops trailing zero words from attendance bitsets: merge
// order can leave different capacities behind identical bit contents.
func trimBitsets(e *StatsExport) *StatsExport {
	for i, words := range e.Responded {
		n := len(words)
		for n > 0 && words[n-1] == 0 {
			n--
		}
		e.Responded[i] = words[:n]
	}
	return e
}

// TestShardedExportMatchesIncremental: the sharded evaluator's merged
// export equals the single-shard evaluator's on the same responses.
func TestShardedExportMatchesIncremental(t *testing.T) {
	const workers, tasks = 7, 160
	subs := exportTestStream(t, workers, tasks, 13)
	inc, err := NewIncremental(workers)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedIncremental(workers, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := inc.Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
		if err := sh.Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(trimBitsets(sh.ExportStats()), trimBitsets(inc.ExportStats())) {
		t.Fatal("sharded export differs from single-shard export")
	}
}

// TestExportIsDeepCopy: mutating an export must not corrupt the evaluator.
func TestExportIsDeepCopy(t *testing.T) {
	const workers = 5
	subs := exportTestStream(t, workers, 80, 3)
	inc, err := NewIncremental(workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := inc.Add(s.w, s.task, s.r); err != nil {
			t.Fatal(err)
		}
	}
	before, err := inc.EvaluateAll(EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	e := inc.ExportStats()
	for i := range e.Agree {
		for j := range e.Agree[i] {
			e.Agree[i][j] += 1000
			e.Common[i][j] += 2000
		}
		for k := range e.Responded[i] {
			e.Responded[i][k] = ^e.Responded[i][k]
		}
	}
	after, err := inc.EvaluateAll(EvalOptions{Confidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, "after export mutation", after, before)
}

// TestMergeValidation: malformed exports are rejected with clear errors.
func TestMergeValidation(t *testing.T) {
	acc, err := NewStatsAccumulator(4)
	if err != nil {
		t.Fatal(err)
	}
	base := func() *StatsExport {
		inc, err := NewIncremental(4)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range exportTestStream(t, 4, 40, 9) {
			if err := inc.Add(s.w, s.task, s.r); err != nil {
				t.Fatal(err)
			}
		}
		return inc.ExportStats()
	}
	cases := []struct {
		name   string
		mutate func(*StatsExport)
	}{
		{"worker-count mismatch", func(e *StatsExport) { e.Workers = 5 }},
		{"short counter rows", func(e *StatsExport) { e.Agree = e.Agree[:2] }},
		{"ragged row", func(e *StatsExport) { e.Common[1] = e.Common[1][:1] }},
		{"negative counter", func(e *StatsExport) { e.Agree[0][1] = -1; e.Agree[1][0] = -1 }},
		{"agree exceeds common", func(e *StatsExport) { e.Agree[0][1] = e.Common[0][1] + 1; e.Agree[1][0] = e.Agree[0][1] }},
		{"asymmetric", func(e *StatsExport) { e.Agree[0][1]++ }},
		{"negative totals", func(e *StatsExport) { e.Responses = -1 }},
		{"missing bitsets", func(e *StatsExport) { e.Responded = e.Responded[:1] }},
	}
	for _, tc := range cases {
		e := base()
		tc.mutate(e)
		if err := acc.Merge(e); err == nil {
			t.Errorf("%s: Merge accepted a malformed export", tc.name)
		}
	}
	// The untouched export still merges.
	if err := acc.Merge(base()); err != nil {
		t.Fatalf("valid export rejected: %v", err)
	}
}

package core

import (
	"testing"

	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// Allocation-regression tests for the zero-allocation spectral pipeline:
// these run under plain `go test ./...`, so tier-1 CI catches any change
// that reintroduces per-call heap traffic on the A3/A2 hot paths.

// TestProbEstimateSteadyStateZeroAllocs asserts that after one warm-up call
// populates the workspace pools, probEstimate — the function the A3
// gradient loop calls 2k³+1 times per response-matrix entry — allocates
// nothing, across arities and both spectral paths.
func TestProbEstimateSteadyStateZeroAllocs(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6} {
		for _, raw := range []bool{false, true} {
			opts := KAryOptions{RawEigen: raw}
			counts := synthCounts(k, 5000)
			ws := mat.NewWorkspace()
			// Warm-up: grow every pool to the call's working set.
			ws.Reset()
			if _, err := probEstimate(counts, opts, ws); err != nil {
				t.Fatalf("k=%d raw=%v: %v", k, raw, err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				ws.Reset()
				if _, err := probEstimate(counts, opts, ws); err != nil {
					t.Fatalf("k=%d raw=%v: %v", k, raw, err)
				}
			})
			if allocs != 0 {
				t.Errorf("k=%d raw=%v: steady-state probEstimate allocates %.1f times per call, want 0", k, raw, allocs)
			}
		}
	}
}

// TestGradientEntryZeroAllocs exercises the exact shape of the gradient
// loop body: one Reset serving a +ε and a −ε estimate whose results are
// read together. This is the steady state the 2k³ central-difference calls
// run in.
func TestGradientEntryZeroAllocs(t *testing.T) {
	const k = 3
	counts := synthCounts(k, 5000)
	ws := mat.NewWorkspace()
	eps := 0.01
	entry := func() {
		ws.Reset()
		orig := counts.At(1, 2, 3)
		counts.Set(1, 2, 3, orig+eps)
		plus, errP := probEstimate(counts, KAryOptions{}, ws)
		counts.Set(1, 2, 3, orig-eps)
		minus, errM := probEstimate(counts, KAryOptions{}, ws)
		counts.Set(1, 2, 3, orig)
		if errP != nil || errM != nil {
			t.Fatal(errP, errM)
		}
		if plus.v[0].At(0, 0) == minus.v[0].At(0, 0) && plus.v[0].At(0, 0) == 0 {
			t.Fatal("implausible zero estimates")
		}
	}
	entry() // warm-up
	if allocs := testing.AllocsPerRun(20, entry); allocs != 0 {
		t.Errorf("gradient entry allocates %.1f times, want 0", allocs)
	}
}

// TestLemma4QuadZeroAllocs asserts the structured Lemma-4 quadratic form —
// Theorem 1's dᵀΣd on the A2 hot path — is allocation-free.
func TestLemma4QuadZeroAllocs(t *testing.T) {
	cov := buildLemma4(t, 23, 15, 200, 0)
	d := uniformWeights(cov.Dim())
	var sink float64
	if allocs := testing.AllocsPerRun(50, func() {
		sink = cov.Quad(d)
		sink += cov.DiagAbsQuad(d)
	}); allocs != 0 {
		t.Errorf("Lemma-4 quad form allocates %.1f times, want 0", allocs)
	}
	_ = sink
}

// TestEvaluateOneAllocsIndependentOfTriples asserts that one worker's A2
// solve allocates a fixed number of times however many triples it
// aggregates: the per-triple statistics and their 3×3 covariance reuse
// workspace scratch, so 16 and 64 workers (7 and 31 triples) cost the same.
func TestEvaluateOneAllocsIndependentOfTriples(t *testing.T) {
	allocs := make(map[int]float64)
	for _, m := range []int{16, 64} {
		rates := make([]float64, m)
		for w := range rates {
			rates[w] = 0.1
		}
		ds, _, err := sim.Binary{Tasks: 1000, Workers: m, Density: 0.9, ErrorRates: rates}.Generate(randx.NewSource(3))
		if err != nil {
			t.Fatal(err)
		}
		v := newSolveStats(newFullStatsCache(ds), m, false, 1)
		ws := mat.NewWorkspace()
		opts := EvalOptions{Confidence: 0.9, MinCommon: 1}
		if est := evaluateOne(v, 0, opts, ws); est.Err != nil || est.Triples != (m-1)/2 {
			t.Fatalf("m=%d: %d triples, err %v; want %d triples", m, est.Triples, est.Err, (m-1)/2)
		}
		allocs[m] = testing.AllocsPerRun(20, func() { evaluateOne(v, 0, opts, ws) })
	}
	if allocs[64] != allocs[16] {
		t.Errorf("evaluateOne allocates %.0f times at 16 workers and %.0f at 64, want equal", allocs[16], allocs[64])
	}
}

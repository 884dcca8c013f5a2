package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/stat"
)

// WeightStrategy selects how Algorithm A2 combines the estimates from a
// worker's triples (Section III-C1, "Setting a_k").
type WeightStrategy int

const (
	// OptimalWeights minimizes the combined variance via Lemma 5:
	// a = C⁻¹𝟙 / ‖C⁻¹𝟙‖₁. This is the paper's default and the subject of
	// the Fig. 2(c) ablation.
	OptimalWeights WeightStrategy = iota
	// UniformWeights sets every a_k = 1/l. Valid but looser intervals.
	UniformWeights
)

// PairingStrategy selects how the remaining workers are split into pairs
// (Section III-C1, "Selecting triples").
type PairingStrategy int

const (
	// GreedyPairing sorts candidates by common-task count with the evaluated
	// worker and pairs them greedily — the paper's strategy, which
	// concentrates quality in a few excellent triples.
	GreedyPairing PairingStrategy = iota
	// ArbitraryPairing pairs candidates in index order. Used as the
	// ablation baseline for the pairing strategy.
	ArbitraryPairing
)

// EvalOptions configures EvaluateWorkers.
type EvalOptions struct {
	// Confidence is the interval confidence level c ∈ (0,1). Required.
	Confidence float64
	// Weights selects the triple-combination strategy (default optimal).
	Weights WeightStrategy
	// Pairing selects the triple-formation strategy (default greedy).
	Pairing PairingStrategy
	// MinCommon is the minimum number of common tasks for a pair of workers
	// to be usable. The paper requires at least one; higher values trade
	// coverage for stability. Zero means 1.
	MinCommon int
	// Parallel evaluates workers on GOMAXPROCS goroutines. Only the batch
	// functions (EvaluateWorkers, EvaluateWorkersDelta) read it; streaming
	// evaluators and StatsAccumulator always fan a multi-worker query out
	// over up to GOMAXPROCS goroutines. Per-worker evaluations are
	// independent (they share only the read-only statistics), so results
	// are identical to the serial path.
	Parallel bool
}

// WorkerEstimate is the outcome of evaluating one worker with Algorithm A2.
type WorkerEstimate struct {
	Worker   int           // worker index in the dataset
	Interval stat.Interval // confidence interval for the error rate
	Triples  int           // number of triples aggregated
	Err      error         // non-nil when no estimate exists for this worker
}

// WorkerDelta is the confidence-level-independent part of a worker's
// Algorithm A2 estimate: an interval at any level c is
// Est.Interval(c).ClampTo(0, 1). Experiment harnesses sweeping confidence
// levels use this to estimate once and derive every interval.
type WorkerDelta struct {
	Worker  int
	Est     DeltaEstimate
	Triples int
	Err     error
}

// EvaluateWorkers runs Algorithm A2: for every worker it forms triples with
// pairs of other workers, runs the 3-worker estimator per triple, and
// combines the per-triple estimates with covariance-aware weights into a
// single confidence interval. Workers whose data is insufficient or
// degenerate get a non-nil Err in their slot; the method never fails as a
// whole unless the dataset or options are invalid.
func EvaluateWorkers(ds *crowd.Dataset, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	deltas, err := EvaluateWorkersDelta(ds, opts)
	if err != nil {
		return nil, err
	}
	return intervals(deltas, opts.Confidence), nil
}

// intervals converts solved deltas into interval form at confidence c.
func intervals(deltas []WorkerDelta, c float64) []WorkerEstimate {
	out := make([]WorkerEstimate, len(deltas))
	for i, d := range deltas {
		out[i] = WorkerEstimate{Worker: d.Worker, Triples: d.Triples, Err: d.Err}
		if d.Err == nil {
			out[i].Interval = d.Est.Interval(c).ClampTo(0, 1)
		}
	}
	return out
}

// EvaluateWorkersDelta is EvaluateWorkers without committing to a confidence
// level: it returns each worker's delta-method mean and deviation.
// opts.Confidence is ignored here.
func EvaluateWorkersDelta(ds *crowd.Dataset, opts EvalOptions) ([]WorkerDelta, error) {
	if ds.Arity() != 2 {
		return nil, fmt.Errorf("core: EvaluateWorkers needs a binary dataset, got arity %d", ds.Arity())
	}
	m := ds.Workers()
	if m < 3 {
		return nil, fmt.Errorf("core: need at least 3 workers, have %d: %w", m, ErrInsufficientData)
	}
	goroutines := 1
	if opts.Parallel {
		goroutines = min(runtime.GOMAXPROCS(0), m)
	}
	return solveMany(newFullStatsCache(ds), m, allWorkers(m), opts, goroutines), nil
}

// workspaces recycles Lemma 5 solve scratch across every A2 evaluation,
// batch and streaming alike.
var workspaces = sync.Pool{New: func() any { return mat.NewWorkspace() }}

// solveMany is where every Algorithm A2 evaluation is solved: it runs
// the listed workers against src on the given number of goroutines
// (inline when it is 1), through one solveStats per call, which carries a
// triple table when the query covers at least a third of the crowd
// (useTripleTable). Goroutines claim indices from a
// shared counter, each solving with its own pooled workspace; out[i]
// belongs to workers[i] and depends only on src, so the result is
// identical at every goroutine count and with or without the table.
func solveMany(src statsSource, m int, workers []int, opts EvalOptions, goroutines int) []WorkerDelta {
	return solveWith(newSolveStats(src, m, useTripleTable(m, len(workers)), goroutines), workers, opts, goroutines)
}

// solveWith is solveMany over an already built view.
func solveWith(v *solveStats, workers []int, opts EvalOptions, goroutines int) []WorkerDelta {
	if opts.MinCommon <= 0 {
		opts.MinCommon = 1
	}
	out := make([]WorkerDelta, len(workers))
	var next atomic.Int64
	fanOut(goroutines, func() {
		ws := workspaces.Get().(*mat.Workspace)
		// Deferred so a panic in evaluateOne cannot leak the workspace;
		// Reset first so the next user never receives a dirty arena.
		defer func() {
			ws.Reset()
			workspaces.Put(ws)
		}()
		for i := int(next.Add(1)) - 1; i < len(workers); i = int(next.Add(1)) - 1 {
			out[i] = evaluateOne(v, workers[i], opts, ws)
		}
	})
	return out
}

// fanOut runs fn on the given number of goroutines, inline when it is 1,
// and returns once every copy has.
func fanOut(goroutines int, fn func()) {
	if goroutines <= 1 {
		fn()
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// evaluateWorkers is the validate-then-solve step behind every streaming
// and accumulator query: it checks the confidence level and worker range,
// then solves the listed workers against src over up to GOMAXPROCS
// goroutines and converts each result to an interval.
func evaluateWorkers(src statsSource, m int, workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	if err := checkConfidence(opts.Confidence); err != nil {
		return nil, err
	}
	for _, w := range workers {
		if w < 0 || w >= m {
			return nil, fmt.Errorf("core: worker %d out of range", w)
		}
	}
	return intervals(solveMany(src, m, workers, opts, min(runtime.GOMAXPROCS(0), len(workers))), opts.Confidence), nil
}

// evaluateWorker is evaluateWorkers for one worker, solved inline.
func evaluateWorker(src statsSource, m, worker int, opts EvalOptions) (WorkerEstimate, error) {
	ests, err := evaluateWorkers(src, m, []int{worker}, opts)
	if err != nil {
		return WorkerEstimate{}, err
	}
	return ests[0], nil
}

// allWorkers returns the indices 0…m−1.
func allWorkers(m int) []int {
	workers := make([]int, m)
	for w := range workers {
		workers[w] = w
	}
	return workers
}

// evaluateOne runs steps 1–3 of Algorithm A2 for a single worker, with
// opts.MinCommon already defaulted. ws is the calling goroutine's scratch
// workspace for the per-triple covariances and the Lemma 5 weight solve;
// it is rewound here, so nothing handed out by it may outlive the call.
func evaluateOne(v *solveStats, i int, opts EvalOptions, ws *mat.Workspace) WorkerDelta {
	ws.Reset()
	est := WorkerDelta{Worker: i}
	pairs := formPairs(v, v.m, i, opts.Pairing, opts.MinCommon)
	if len(pairs) == 0 {
		est.Err = fmt.Errorf("core: worker %d has no usable triple: %w", i, ErrInsufficientData)
		return est
	}

	// Step 2: per-triple statistics and delta estimates for worker i. One
	// tripleStats and its 3×3 covariance (workspace scratch) serve every
	// triple in turn.
	type tripleResult struct {
		est   DeltaEstimate
		j1    int // partner workers
		j2    int
		dQij1 float64 // ∂p_i/∂q_{i,j1}
		dQij2 float64 // ∂p_i/∂q_{i,j2}
	}
	triples := make([]tripleResult, 0, len(pairs))
	st := tripleStats{cov: ws.Get(3, 3)}
	for _, pr := range pairs {
		if err := st.compute(v, i, pr[0], pr[1]); err != nil {
			continue // degenerate triple: skip, as the 500-replicate harness does
		}
		de, err := st.estimate(0) // worker i sits at position 0 of the triple
		if err != nil {
			continue
		}
		triples = append(triples, tripleResult{
			est: de, j1: pr[0], j2: pr[1],
			// For triple (i, j1, j2): q-vector is (q_{i,j1}, q_{i,j2}, q_{j1,j2}),
			// so worker i's own-pair derivatives are components 0 and 1.
			dQij1: st.grad[0][0],
			dQij2: st.grad[0][1],
		})
	}
	l := len(triples)
	if l == 0 {
		est.Err = fmt.Errorf("core: worker %d: all triples degenerate: %w", i, ErrDegenerate)
		return est
	}
	est.Triples = l

	// Pooled error-rate estimate for worker i, used inside Lemma 4's C(i,·,·).
	var pPool float64
	for _, tr := range triples {
		pPool += tr.est.Mean
	}
	pPool /= float64(l)
	pPool = stat.Clamp01(pPool)

	// Step 3: the l×l covariance of the triple estimates (Lemma 4), in
	// structured form: entries are generated on demand from the per-triple
	// gradients and v's flat pair arrays and triple counts, so nothing l×l
	// is allocated per worker. Each entry still sums four Lemma 4 terms,
	// each a triple count and three pair reads, so it is computed at most
	// once: the Lemma 5 solve below has to materialize the matrix anyway
	// (into reusable workspace scratch), and when it does, the delta method
	// reads that scratch rather than regenerating entries; with uniform
	// weights (or a single triple) no matrix is ever built and the
	// structured quadratic form is used directly. Both routes produce
	// bit-identical entries.
	cov := newLemma4Cov(v, i, pPool, l, ws)
	for _, tr := range triples {
		cov.add(tr.est.Dev*tr.est.Dev, tr.dQij1, tr.j1, tr.dQij2, tr.j2)
	}

	// Combination weights (Lemma 5 or uniform). The solve materializes the
	// covariance into workspace scratch, which cov then serves Quad from.
	weights := uniformWeights(l)
	if opts.Weights == OptimalWeights && l > 1 {
		if w, err := optimalWeightsCov(cov, ws); err == nil {
			weights = w
		}
	}

	// Final estimate: p̂_i = Σ a_k p_{k,i}; Var = aᵀCa (Theorem 1 with the
	// linear function f = Σ a_k x_k, whose gradient is the weight vector).
	var mean float64
	for k, tr := range triples {
		mean += weights[k] * tr.est.Mean
	}
	de, err := DeltaMethodCov(mean, weights, cov)
	if err != nil {
		// Optimal weights can push aᵀCa negative when C is badly estimated;
		// retry with uniform weights before giving up.
		weights = uniformWeights(l)
		mean = 0
		for k, tr := range triples {
			mean += weights[k] * tr.est.Mean
		}
		de, err = DeltaMethodCov(mean, weights, cov)
		if err != nil {
			est.Err = err
			return est
		}
	}
	est.Est = de
	return est
}

// formPairs implements Step 1 of Algorithm A2: split the workers other than
// i into pairs, each of which will join i to form a triple.
func formPairs(cache pairSource, m, i int, strategy PairingStrategy, minCommon int) [][2]int {
	// Candidates must share at least minCommon tasks with worker i.
	cands := make([]int, 0, m-1)
	for w := 0; w < m; w++ {
		if w != i && cache.pair(i, w).Common >= minCommon {
			cands = append(cands, w)
		}
	}
	if strategy == GreedyPairing {
		// Descending by common-task count with worker i: the paper pairs the
		// best-overlapping workers together so some triples are excellent
		// (the weight optimization then exploits the quality spread).
		slices.SortStableFunc(cands, func(a, b int) int {
			return cmp.Compare(cache.pair(i, b).Common, cache.pair(i, a).Common)
		})
	}
	pairs := make([][2]int, 0, len(cands)/2)
	used := make([]bool, len(cands))
	for a := 0; a < len(cands); a++ {
		if used[a] {
			continue
		}
		for b := a + 1; b < len(cands); b++ {
			if used[b] {
				continue
			}
			// The pair must share tasks with each other too, otherwise the
			// triple's q_{j1,j2} is undefined.
			if cache.pair(cands[a], cands[b]).Common >= minCommon {
				pairs = append(pairs, [2]int{cands[a], cands[b]})
				used[a], used[b] = true, true
				break
			}
		}
	}
	return pairs
}

func uniformWeights(l int) []float64 {
	w := make([]float64, l)
	for i := range w {
		w[i] = 1 / float64(l)
	}
	return w
}

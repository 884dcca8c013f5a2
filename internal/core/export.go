package core

import (
	"fmt"
	"sync"
)

// StatsExport is the serialization-neutral form of the streaming sufficient
// statistics: the symmetric pairwise agree/common counters and per-worker
// attendance bitsets that Algorithm A2's streaming path accumulates.
// Everything in it is an integer, and exports built from disjoint task sets
// merge exactly — summing counters and unioning bitsets yields the same
// statistics, bit for bit, as ingesting the union of the responses into one
// evaluator. That additivity is what lets a distributed deployment ship
// per-machine exports to a coordinator and still evaluate exactly.
//
// An export is a deep copy: mutating it never affects the evaluator it came
// from, and vice versa.
type StatsExport struct {
	// Workers is the crowd size the counters are indexed by.
	Workers int
	// Tasks is the number of distinct task indices seen (max index + 1).
	Tasks int
	// Responses is the total number of responses behind the counters.
	Responses int
	// Agree[i][j] counts tasks where workers i and j gave the same answer;
	// symmetric, diagonal unused.
	Agree [][]int
	// Common[i][j] counts tasks both i and j answered; symmetric, diagonal
	// unused.
	Common [][]int
	// Responded[i] is worker i's attendance bitset over task indices
	// (little-endian 64-bit words).
	Responded [][]uint64
}

// exportStats deep-copies a streamStats into the exported form.
func exportStats(s *streamStats) *StatsExport {
	workers := len(s.agree)
	e := &StatsExport{
		Workers:   workers,
		Tasks:     s.tasks,
		Responses: s.responses,
		Agree:     make([][]int, workers),
		Common:    make([][]int, workers),
		Responded: make([][]uint64, workers),
	}
	for i := 0; i < workers; i++ {
		e.Agree[i] = append([]int(nil), s.agree[i]...)
		e.Common[i] = append([]int(nil), s.common[i]...)
		e.Responded[i] = append([]uint64(nil), s.responded[i]...)
	}
	return e
}

// ExportStats snapshots the merged sufficient statistics across every
// shard. Like Evaluate, it reflects each shard's responses as of the moment
// the lazy merge visited that shard, totals included — Responses always
// counts exactly the responses behind the exported counters and bitsets.
// It is safe to call concurrently with Add and with evaluations; the
// caller owns the copy.
func (s *ShardedIncremental) ExportStats() *StatsExport {
	return exportStats(s.snapshot())
}

// validate checks the structural invariants a well-formed export satisfies.
// It guards the merge path against corrupted or truncated wire payloads;
// it cannot detect a peer that lies consistently.
func (e *StatsExport) validate() error {
	if e.Workers < 3 {
		return fmt.Errorf("core: export needs at least 3 workers, has %d: %w", e.Workers, ErrInsufficientData)
	}
	if e.Tasks < 0 || e.Responses < 0 {
		return fmt.Errorf("core: export has negative totals (tasks %d, responses %d)", e.Tasks, e.Responses)
	}
	if len(e.Agree) != e.Workers || len(e.Common) != e.Workers || len(e.Responded) != e.Workers {
		return fmt.Errorf("core: export row counts (%d, %d, %d) do not match %d workers",
			len(e.Agree), len(e.Common), len(e.Responded), e.Workers)
	}
	for i := 0; i < e.Workers; i++ {
		if len(e.Agree[i]) != e.Workers || len(e.Common[i]) != e.Workers {
			return fmt.Errorf("core: export counter row %d has length (%d, %d), want %d",
				i, len(e.Agree[i]), len(e.Common[i]), e.Workers)
		}
		for j := 0; j < e.Workers; j++ {
			a, c := e.Agree[i][j], e.Common[i][j]
			if a < 0 || c < 0 {
				return fmt.Errorf("core: export counter (%d,%d) is negative", i, j)
			}
			if i != j && a > c {
				return fmt.Errorf("core: export agree[%d][%d]=%d exceeds common=%d", i, j, a, c)
			}
			if e.Agree[j][i] != a || e.Common[j][i] != c {
				return fmt.Errorf("core: export counters (%d,%d) are not symmetric", i, j)
			}
		}
	}
	return nil
}

// toStreamStats adapts a validated export for the addFrom reducer. The
// returned streamStats aliases the export's slices; addFrom only reads its
// argument, so no copy is needed. Exports carry no answer bitsets, so the
// adapted stats contribute none — a StatsAccumulator therefore cannot be
// compact-checkpointed, only evaluated (see compact.go).
func (e *StatsExport) toStreamStats() *streamStats {
	s := &streamStats{
		agree:     e.Agree,
		common:    e.Common,
		responded: make([]dynBitset, len(e.Responded)),
		tasks:     e.Tasks,
		responses: e.Responses,
	}
	for i, words := range e.Responded {
		s.responded[i] = dynBitset(words)
	}
	return s
}

// StatsAccumulator merges stream-statistics exports through the same
// addFrom reducer the sharded evaluator uses, then evaluates once on the
// merged counters. It is the coordinator half of a distributed deployment:
// workers ingest responses for disjoint task sets, export their statistics,
// and the accumulator's intervals are bit-identical to a single streaming
// evaluator fed every response — the merge is exact integer addition, and
// evaluation runs the very same Algorithm A2 solver, solveMany.
//
// Merge and the evaluation methods are safe for concurrent use. addFrom
// mutates the statistics in place, so an evaluation holds the lock for its
// whole solve; the solve itself fans out over up to GOMAXPROCS goroutines.
type StatsAccumulator struct {
	workers int

	mu    sync.Mutex
	stats *streamStats
}

// NewStatsAccumulator returns an empty accumulator for a crowd of the given
// size. Every merged export must carry the same worker count.
func NewStatsAccumulator(workers int) (*StatsAccumulator, error) {
	if workers < 3 {
		return nil, fmt.Errorf("core: need at least 3 workers, have %d: %w", workers, ErrInsufficientData)
	}
	return &StatsAccumulator{workers: workers, stats: newStreamStats(workers)}, nil
}

// Workers returns the crowd size the accumulator is indexed by.
func (a *StatsAccumulator) Workers() int { return a.workers }

// Tasks returns the largest task count over the merged exports.
func (a *StatsAccumulator) Tasks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.tasks
}

// Responses returns the total responses over the merged exports.
func (a *StatsAccumulator) Responses() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.responses
}

// Merge folds one export into the accumulator: counter sums and attendance
// unions, exactly as the sharded evaluator merges its stripes. The task
// sets behind the merged exports must be disjoint (each task's responses
// ingested on exactly one exporter) for the result to equal a single
// evaluator's statistics; that partitioning is the distributed layer's
// routing contract.
func (a *StatsAccumulator) Merge(e *StatsExport) error {
	if e.Workers != a.workers {
		return fmt.Errorf("core: export for %d workers cannot merge into accumulator for %d", e.Workers, a.workers)
	}
	if err := e.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.addFrom(e.toStreamStats())
	return nil
}

// Export re-exports the merged statistics, so accumulators can themselves
// feed a higher tier of aggregation.
func (a *StatsAccumulator) Export() *StatsExport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return exportStats(a.stats)
}

// Evaluate returns the error-rate interval for one worker from the merged
// statistics, solved on the calling goroutine.
func (a *StatsAccumulator) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return evaluateWorker(a.stats, a.workers, worker, opts)
}

// EvaluateAll returns intervals for every worker from the merged
// statistics.
func (a *StatsAccumulator) EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error) {
	return a.EvaluateSubset(allWorkers(a.workers), opts)
}

// EvaluateSubset returns intervals for the given worker indices, aligned
// with the input slice.
func (a *StatsAccumulator) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return evaluateWorkers(a.stats, a.workers, workers, opts)
}

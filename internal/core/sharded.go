package core

import (
	"fmt"
	"sync"

	"crowdassess/internal/crowd"
)

// StreamingEvaluator is the contract of a streaming evaluator: online
// ingestion of binary responses plus on-demand Algorithm A2 intervals over
// everything ingested so far. ShardedIncremental implements it locally and
// dist.ClusterEvaluator across a cluster; pool.Manager and the public
// facade program against this interface.
type StreamingEvaluator interface {
	// Add records worker w's response r on task t.
	Add(w, t int, r crowd.Response) error
	// Workers returns the number of workers tracked.
	Workers() int
	// Tasks returns the number of distinct task indices seen.
	Tasks() int
	// Responses returns the total number of responses recorded, in O(1).
	Responses() int
	// Evaluate returns the current error-rate interval for one worker.
	Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error)
	// EvaluateAll returns current intervals for every worker.
	EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error)
	// EvaluateSubset returns current intervals for the given worker
	// indices, aligned with the input slice — for callers that track
	// eligibility themselves and must not pay for discarded estimates.
	EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error)
	// MajorityDisagreement runs the paper's spammer screen online.
	MajorityDisagreement() []float64
	// Snapshot materializes the accumulated responses as a Dataset.
	Snapshot() (*crowd.Dataset, error)
}

var _ StreamingEvaluator = (*ShardedIncremental)(nil)

// IncrementalOptions configures NewStreaming.
type IncrementalOptions struct {
	// Shards is the number of independent task-stripes ingestion is split
	// across; 0 or 1 means one shard. Add is safe from any number of
	// goroutines at every shard count, more shards only let concurrent
	// Adds contend less. Intervals are identical either way.
	Shards int
}

// NewStreaming returns a streaming evaluator for the given number of
// binary workers, sharded per opts.
func NewStreaming(workers int, opts IncrementalOptions) (StreamingEvaluator, error) {
	return NewShardedIncremental(workers, max(opts.Shards, 1))
}

// NewIncremental returns an empty one-shard streaming evaluator for the
// given number of binary workers: NewShardedIncremental(workers, 1).
func NewIncremental(workers int) (*ShardedIncremental, error) {
	return NewShardedIncremental(workers, 1)
}

// ShardedIncremental maintains the sufficient statistics of Algorithm A2
// online, realizing the paper's closing remark that the method "can be
// easily modified to be incremental, to keep efficiently updating worker
// error rates as more tasks get done."
//
// Each added response updates pairwise agreement counts against the task's
// previous responders in O(responders); triple common-task counts are
// answered from per-worker attendance bitsets. Evaluating a worker then
// costs the same as the batch algorithm on the accumulated statistics —
// no response is ever rescanned.
//
// The task space is hash-partitioned into N stripes, each owned by a shard
// with its own lock, agree/common counters and attendance bitsets. Because
// every response for a task lands in exactly one shard, a shard's counters
// are the exact statistics of its stripe, and the integer counters are
// additive across stripes — so ingestion scales with shards while
// evaluation, which runs on the merged counters, produces bit-identical
// intervals at every shard count.
//
// Concurrency contract: Add is safe from any number of goroutines (two
// Adds contend only when their tasks hash to the same shard). The
// evaluation methods are safe concurrently with Add and with each other;
// each works from an immutable merged snapshot that reflects, per shard,
// every response ingested up to the moment the merge visited that shard,
// and fans its solves out over up to GOMAXPROCS goroutines whatever the
// shard count. Merges are lazy: each shard carries an epoch advanced by
// Add, and a snapshot is rebuilt only when some shard's epoch moved —
// repeated evaluations of a quiescent pool reuse the previous merge.
type ShardedIncremental struct {
	workers int
	arity   int
	shards  []*incShard

	// mergeMu guards the lazy merge state below. merged is immutable once
	// published (re-merges build a fresh streamStats), so callers that
	// obtained it under mergeMu may keep reading it lock-free afterwards.
	mergeMu      sync.Mutex
	merged       *streamStats
	mergedEpochs []uint64
}

// incShard owns one task-stripe of a ShardedIncremental.
type incShard struct {
	// mu guards every field below it.
	mu    sync.Mutex
	epoch uint64 // advanced by every successful Add; drives lazy re-merges
	// taskResponses[t] lists (worker, response) pairs for task t of this
	// stripe.
	taskResponses map[int][]workerResponse
	stats         *streamStats
}

type workerResponse struct {
	worker int
	resp   crowd.Response
}

// NewShardedIncremental returns an empty streaming evaluator for the given
// number of binary workers (arity is fixed at 2: the streaming path wraps
// Algorithm A2), with ingestion split across the given number of
// task-stripe shards. Shard counts beyond GOMAXPROCS buy little; see the
// README's shard-sizing guidance.
func NewShardedIncremental(workers, shards int) (*ShardedIncremental, error) {
	if workers < 3 {
		return nil, fmt.Errorf("core: need at least 3 workers, have %d: %w", workers, ErrInsufficientData)
	}
	if shards < 1 {
		return nil, fmt.Errorf("core: need at least 1 shard, have %d", shards)
	}
	s := &ShardedIncremental{
		workers:      workers,
		arity:        2,
		shards:       make([]*incShard, shards),
		mergedEpochs: make([]uint64, shards),
	}
	for i := range s.shards {
		s.shards[i] = &incShard{
			taskResponses: make(map[int][]workerResponse),
			stats:         newStreamStats(workers),
		}
	}
	return s, nil
}

// shardOf routes task t to its stripe. The multiplicative hash spreads
// clustered task ids (batch uploads use contiguous ranges) evenly across
// shards so contiguous ingestion doesn't serialize on one lock.
func (s *ShardedIncremental) shardOf(t int) *incShard {
	h := uint64(t)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return s.shards[h%uint64(len(s.shards))]
}

// Workers returns the number of workers tracked.
func (s *ShardedIncremental) Workers() int { return s.workers }

// Shards returns the number of task-stripe shards.
func (s *ShardedIncremental) Shards() int { return len(s.shards) }

// Tasks returns the number of distinct task indices seen.
func (s *ShardedIncremental) Tasks() int {
	tasks := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		tasks = max(tasks, sh.stats.tasks)
		sh.mu.Unlock()
	}
	return tasks
}

// Responses returns the total number of responses recorded. It sums
// counters maintained by Add, so it is O(shards) — pool.Review calls it
// every batch and must not pay an O(tasks) rescan.
func (s *ShardedIncremental) Responses() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.stats.responses
		sh.mu.Unlock()
	}
	return n
}

// Add records worker w's response r on task t. A worker may answer a task
// only once; duplicate or out-of-range submissions are rejected. It is
// safe to call from any number of goroutines; responses to tasks in
// different stripes never contend.
func (s *ShardedIncremental) Add(w, t int, r crowd.Response) error {
	if w < 0 || w >= s.workers {
		return fmt.Errorf("core: worker %d out of range 0…%d", w, s.workers-1)
	}
	if t < 0 {
		return fmt.Errorf("core: negative task index %d", t)
	}
	if r != crowd.Yes && r != crowd.No {
		return fmt.Errorf("core: streaming evaluator is binary; response %d: %w", r, crowd.ErrArity)
	}
	sh := s.shardOf(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stats.responded[w].get(t) {
		return fmt.Errorf("core: worker %d already answered task %d", w, t)
	}
	sh.stats.record(w, t, r, sh.taskResponses[t])
	sh.taskResponses[t] = append(sh.taskResponses[t], workerResponse{w, r})
	sh.epoch++
	return nil
}

// snapshot returns merged statistics covering every shard, rebuilding them
// only if some shard ingested since the last merge. The returned
// streamStats is never mutated afterwards, so the caller may read it
// without holding any lock.
func (s *ShardedIncremental) snapshot() *streamStats {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	dirty := s.merged == nil
	for i, sh := range s.shards {
		if dirty {
			break
		}
		sh.mu.Lock()
		dirty = sh.epoch != s.mergedEpochs[i]
		sh.mu.Unlock()
	}
	if !dirty {
		return s.merged
	}
	m := newStreamStats(s.workers)
	for i, sh := range s.shards {
		sh.mu.Lock()
		m.addFrom(sh.stats)
		s.mergedEpochs[i] = sh.epoch
		sh.mu.Unlock()
	}
	s.merged = m
	return m
}

// cut holds every shard lock (in index order, the only multi-shard locking
// in the package) and runs fn on a fresh merge of every shard plus the
// shards' task-response maps, so whatever fn derives — a dataset, a
// checkpoint — describes one point-in-time set of responses even under
// concurrent Add traffic. fn must not retain the maps.
func (s *ShardedIncremental) cut(fn func(m *streamStats, taskMaps []map[int][]workerResponse)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	m := newStreamStats(s.workers)
	taskMaps := make([]map[int][]workerResponse, len(s.shards))
	for i, sh := range s.shards {
		m.addFrom(sh.stats)
		taskMaps[i] = sh.taskResponses
	}
	fn(m, taskMaps)
}

// Evaluate returns the current error-rate interval for one worker, solved
// on the calling goroutine.
func (s *ShardedIncremental) Evaluate(worker int, opts EvalOptions) (WorkerEstimate, error) {
	return evaluateWorker(s.snapshot(), s.workers, worker, opts)
}

// EvaluateAll returns current intervals for every worker from one merged
// snapshot, fanned out over up to GOMAXPROCS goroutines.
func (s *ShardedIncremental) EvaluateAll(opts EvalOptions) ([]WorkerEstimate, error) {
	return evaluateWorkers(s.snapshot(), s.workers, allWorkers(s.workers), opts)
}

// EvaluateSubset returns current intervals for the given worker indices,
// aligned with the input slice. One snapshot merge serves the whole
// subset, and only the listed workers are solved.
func (s *ShardedIncremental) EvaluateSubset(workers []int, opts EvalOptions) ([]WorkerEstimate, error) {
	return evaluateWorkers(s.snapshot(), s.workers, workers, opts)
}

// Snapshot materializes the accumulated responses as a Dataset, for
// interoperability with the batch algorithms (pruning, k-ary analysis,
// serialization), from one point-in-time cut across the shards.
func (s *ShardedIncremental) Snapshot() (ds *crowd.Dataset, err error) {
	s.cut(func(m *streamStats, taskMaps []map[int][]workerResponse) {
		ds, err = snapshotDataset(s.workers, m.tasks, s.arity, taskMaps...)
	})
	return ds, err
}

// MajorityDisagreement mirrors Dataset.MajorityDisagreement on the
// accumulated responses, so streaming deployments can run the paper's
// spammer screen without materializing a snapshot.
func (s *ShardedIncremental) MajorityDisagreement() []float64 {
	return disagreementRates(s.DisagreementCounts())
}

// DisagreementCounts returns the integer tallies behind
// MajorityDisagreement: per worker, the number of tasks attempted and the
// number where the worker disagreed with the task's majority. Unlike the
// rates, the tallies are additive across disjoint task sets — each task's
// majority is decided where its responses live — which is what lets the
// shards here, and a coordinator over per-node tallies, run the paper's
// spammer screen exactly.
func (s *ShardedIncremental) DisagreementCounts() (attempted, disagree []int) {
	attempted = make([]int, s.workers)
	disagree = make([]int, s.workers)
	for _, sh := range s.shards {
		sh.mu.Lock()
		tallyDisagreement(attempted, disagree, sh.taskResponses)
		sh.mu.Unlock()
	}
	return attempted, disagree
}

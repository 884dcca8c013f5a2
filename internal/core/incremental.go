package core

import (
	"fmt"
	"math/bits"

	"crowdassess/internal/crowd"
)

// streamStats holds the sufficient statistics of the streaming form of
// Algorithm A2: symmetric pairwise agree/common counters plus per-worker
// attendance bitsets over task indices. Everything in it is an integer
// count, so two streamStats built from disjoint response sets merge
// exactly — addFrom produces the same counters, bit for bit, as feeding
// the union of the responses into one instance. That additivity is what
// lets ShardedIncremental split ingestion across shards, and a
// StatsAccumulator merge exports from many machines, and still reproduce
// the batch intervals exactly.
type streamStats struct {
	// agree/common are symmetric pairwise counters.
	agree  [][]int
	common [][]int
	// responded[w] tracks whether worker w answered a given task (bitset
	// over global task indices).
	responded []dynBitset
	// answers[w] records WHICH answer worker w gave on a task it responded
	// to: bit set means Yes, clear means No (only meaningful where the
	// responded bit is set). Together with responded it makes the
	// statistics fully reconstructive for binary crowds: the pairwise
	// counters are derivable as common[i][j] = |responded_i ∩ responded_j|
	// and agree[i][j] = |responded_i ∩ responded_j ∩ ¬(answers_i ⊕
	// answers_j)| — which is what lets a compact checkpoint (see
	// compact.go) resume ingestion exactly without carrying the response
	// log.
	answers []dynBitset
	// tasks is the highest task index seen + 1 and responses the number
	// of responses behind the counters. They merge with the counters
	// (max and sum), so a merged cut's totals always describe exactly the
	// responses its counters and bitsets hold.
	tasks     int
	responses int
}

func newStreamStats(workers int) *streamStats {
	s := &streamStats{
		agree:     make([][]int, workers),
		common:    make([][]int, workers),
		responded: make([]dynBitset, workers),
		answers:   make([]dynBitset, workers),
	}
	for i := range s.agree {
		s.agree[i] = make([]int, workers)
		s.common[i] = make([]int, workers)
	}
	return s
}

// record accounts for worker w answering r on task t, given the responses
// previously recorded for that task. The caller appends to its own
// task-response list; record only maintains the derived counters.
func (s *streamStats) record(w, t int, r crowd.Response, prev []workerResponse) {
	for _, p := range prev {
		s.common[w][p.worker]++
		s.common[p.worker][w]++
		if p.resp == r {
			s.agree[w][p.worker]++
			s.agree[p.worker][w]++
		}
	}
	s.responded[w].set(t)
	if r == crowd.Yes {
		s.answers[w].set(t)
	}
	s.responses++
	s.tasks = max(s.tasks, t+1)
}

// addFrom accumulates o into s: counter sums and attendance unions. The
// task sets behind s and o must be disjoint (each task's responses live in
// exactly one of them), which the sharded evaluator's task-striping
// guarantees.
func (s *streamStats) addFrom(o *streamStats) {
	for i := range s.agree {
		ai, oa := s.agree[i], o.agree[i]
		ci, oc := s.common[i], o.common[i]
		for j := range ai {
			ai[j] += oa[j]
			ci[j] += oc[j]
		}
		s.responded[i].orWith(o.responded[i])
		if i < len(o.answers) {
			s.answers[i].orWith(o.answers[i])
		}
	}
	s.tasks = max(s.tasks, o.tasks)
	s.responses += o.responses
}

// pair implements pairSource over the streaming counters.
func (s *streamStats) pair(i, j int) crowd.PairStats {
	if i == j {
		// Self-agreement, as PairMatrix defines it.
		n := 0
		for _, word := range s.responded[i] {
			n += bits.OnesCount64(word)
		}
		return crowd.PairStats{Common: n, Agree: n}
	}
	return crowd.PairStats{Common: s.common[i][j], Agree: s.agree[i][j]}
}

// common3 implements pairSource over the attendance bitsets.
func (s *streamStats) common3(i, j, k int) int {
	return and3Count(s.responded[i], s.responded[j], s.responded[k])
}

// attendance implements statsSource: the ragged responded bitsets.
func (s *streamStats) attendance(w int) []uint64 { return s.responded[w] }

// dynBitset is a growable bitset over task indices.
type dynBitset []uint64

func (b *dynBitset) set(i int) {
	word := i / 64
	for len(*b) <= word {
		*b = append(*b, 0)
	}
	(*b)[word] |= 1 << (uint(i) % 64)
}

func (b dynBitset) get(i int) bool {
	word := i / 64
	return word < len(b) && b[word]&(1<<(uint(i)%64)) != 0
}

// orWith unions o into b, growing b as needed.
func (b *dynBitset) orWith(o dynBitset) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i, word := range o {
		(*b)[i] |= word
	}
}

// and3Count returns |a ∩ b ∩ c|.
func and3Count(a, b, c dynBitset) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if len(c) < n {
		n = len(c)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += bits.OnesCount64(a[i] & b[i] & c[i])
	}
	return total
}

// snapshotDataset builds a Dataset from one or more task-response maps
// (one per shard in the sharded evaluator; the maps' task sets must be
// disjoint).
func snapshotDataset(workers, tasks, arity int, responseMaps ...map[int][]workerResponse) (*crowd.Dataset, error) {
	if tasks == 0 {
		return nil, fmt.Errorf("core: no responses recorded: %w", ErrInsufficientData)
	}
	ds, err := crowd.NewDataset(workers, tasks, arity)
	if err != nil {
		return nil, err
	}
	for _, m := range responseMaps {
		for t, rs := range m {
			for _, wr := range rs {
				if err := ds.SetResponse(wr.worker, t, wr.resp); err != nil {
					return nil, err
				}
			}
		}
	}
	return ds, nil
}

// tallyDisagreement accumulates per-worker attempted/disagree counts over
// one task-response map. Majorities are per task, so tallying a shard at a
// time is exact.
func tallyDisagreement(attempted, disagree []int, taskResponses map[int][]workerResponse) {
	for _, rs := range taskResponses {
		yes := 0
		for _, wr := range rs {
			if wr.resp == crowd.Yes {
				yes++
			}
		}
		no := len(rs) - yes
		var maj crowd.Response
		switch {
		case yes > no:
			maj = crowd.Yes
		case no > yes:
			maj = crowd.No
		default:
			maj = crowd.Yes // deterministic tie-break, matching MajorityVote
		}
		for _, wr := range rs {
			attempted[wr.worker]++
			if wr.resp != maj {
				disagree[wr.worker]++
			}
		}
	}
}

func disagreementRates(attempted, disagree []int) []float64 {
	out := make([]float64, len(attempted))
	for w := range out {
		if attempted[w] > 0 {
			out[w] = float64(disagree[w]) / float64(attempted[w])
		}
	}
	return out
}

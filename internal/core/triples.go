package core

import (
	"math/bits"
	"sync/atomic"

	"crowdassess/internal/crowd"
)

// statsSource is what one Algorithm A2 query solves against: the pairwise
// statistics and triple counts of pairSource, plus each worker's
// attendance bitset, from which a query wide enough to pay for it builds
// a table of every triple count at once.
type statsSource interface {
	pairSource
	// attendance returns worker w's attempted-task bitset. Sources may be
	// ragged: words past the end of a worker's slice count as zero.
	attendance(w int) []uint64
}

// tripleTableBudget caps the bytes of one query's triple table. The table
// holds C(m,3) int32 counts, so 16 MiB admits m ≤ 294; it lives only for
// the query, but a tenant of a thousand workers would need ~660 MB of it.
// Larger crowds take the direct path, whose counts cost no memory.
const tripleTableBudget = 16 << 20

// useTripleTable is the cost rule behind the triple table for a query of
// the given number of workers over a crowd of m. The table costs C(m,3)
// two-way popcount passes; the direct path counts each solved worker's
// ≈ (m−1)(m−3)/2 partner pairs with a three-way pass apiece, so the table
// wins once the query covers a third of the crowd.
func useTripleTable(m, workers int) bool {
	return m >= 3 && 3*workers >= m && m*(m-1)*(m-2)/6*4 <= tripleTableBudget
}

// solveStats is the read-only view one solveMany call solves against. A
// wide query (useTripleTable) builds a packed table of every c_{i,j,k}
// and copies c_{i,j} and q_{i,j} into flat m×m arrays, so its Lemma 4
// entries read their inputs without interface calls and with each
// agreement rate already divided out (by PairStats.Rate, the same
// arithmetic). A narrow query reads everything from the source, counting
// triples directly: for a single worker the copies would cost as much as
// they save. Counts are the same integers either way and rates the same
// floats, so every interval is bit-identical on both paths.
type solveStats struct {
	m   int
	src statsSource

	// Wide queries only; nil otherwise. common and rate hold c_{i,j} and
	// q_{i,j} at i*m+j. triples packs c_{i,j,k} for i<j<k, with pair
	// (i,j)'s run over k at triples[tripleOff[i*m+j]+k]. An int32 holds
	// any count below 2³¹ tasks, past which one bitset alone is 256 MiB.
	common    []int
	rate      []float64
	triples   []int32
	tripleOff []int
}

// newSolveStats returns the view of src for one query; if wide is set it
// copies the pair arrays and builds the triple table on the given number
// of goroutines.
func newSolveStats(src statsSource, m int, wide bool, goroutines int) *solveStats {
	v := &solveStats{m: m, src: src}
	if !wide {
		return v
	}
	v.common = make([]int, m*m)
	v.rate = make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			ps := src.pair(i, j)
			v.common[i*m+j] = ps.Common
			v.rate[i*m+j] = ps.Rate()
		}
	}
	v.buildTriples(goroutines)
	return v
}

// pair implements pairSource.
func (v *solveStats) pair(i, j int) crowd.PairStats { return v.src.pair(i, j) }

// common3 implements pairSource: a table read on a wide query, the
// source's direct count otherwise.
func (v *solveStats) common3(i, j, k int) int {
	if v.triples == nil {
		return v.src.common3(i, j, k)
	}
	lo, hi := min(i, j, k), max(i, j, k)
	return int(v.triples[v.tripleOff[lo*v.m+i+j+k-lo-hi]+hi])
}

// lemma4C computes C(i, j, j′) of Lemma 4: the covariance between worker
// i's agreement rates with j and with j′,
//
//	C(i, j, j′) = c_{i,j,j′} · p_i(1−p_i) · (2q_{j,j′}−1) / (c_{i,j}·c_{i,j′})
//
// It is zero when the three share no task, which also covers c_{i,j} = 0
// or c_{i,j′} = 0. For j = j′ this degenerates to Var(Q_{i,j}) which
// Lemma 4's diagonal case already covers, but cross-triple sums never hit
// it since triples are disjoint pairs.
func (v *solveStats) lemma4C(i, j, jp int, pI float64) float64 {
	c3 := v.common3(i, j, jp)
	if c3 == 0 {
		return 0
	}
	var cij, cijp int
	var qjjp float64
	if v.rate != nil {
		cij, cijp, qjjp = v.common[i*v.m+j], v.common[i*v.m+jp], v.rate[j*v.m+jp]
	} else {
		cij, cijp, qjjp = v.src.pair(i, j).Common, v.src.pair(i, jp).Common, v.src.pair(j, jp).Rate()
	}
	return float64(c3) * pI * (1 - pI) * (2*qjjp - 1) / (float64(cij) * float64(cijp))
}

// buildTriples fills the triple table from the source's attendance
// bitsets. Goroutines claim pairs (i, j), AND the two rows once, and
// count that row against every k > j. Each entry depends only on the
// bitsets, so the table is the same at every goroutine count.
func (v *solveStats) buildTriples(goroutines int) {
	m := v.m
	rows := make([][]uint64, m)
	for w := range rows {
		rows[w] = v.src.attendance(w)
	}
	v.tripleOff = make([]int, m*m)
	n := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v.tripleOff[i*m+j] = n - (j + 1)
			n += m - 1 - j
		}
	}
	v.triples = make([]int32, n)
	var next atomic.Int64
	fanOut(goroutines, func() {
		var ij []uint64
		for p := int(next.Add(1)) - 1; p < m*m; p = int(next.Add(1)) - 1 {
			i, j := p/m, p%m
			if j <= i || j == m-1 {
				continue
			}
			ij = and2(ij[:0], rows[i], rows[j])
			off := v.tripleOff[i*m+j]
			countAgainst(v.triples[off+j+1:off+m], ij, rows[j+1:])
		}
	})
}

// and2 appends a ∩ b, word by word, to dst (sized to the shorter set).
func and2(dst, a, b []uint64) []uint64 {
	n := min(len(a), len(b))
	for w, x := range a[:n] {
		dst = append(dst, x&b[w])
	}
	return dst
}

// countAgainst sets dst[k] = |ij ∩ rows[k]| for every k. Four rows share
// each pass over ij, so every word of ij is loaded once per four counts.
func countAgainst(dst []int32, ij []uint64, rows [][]uint64) {
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		r0, r1, r2, r3 := rows[k], rows[k+1], rows[k+2], rows[k+3]
		n := min(len(ij), len(r0), len(r1), len(r2), len(r3))
		r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
		var c0, c1, c2, c3 int
		for w, x := range ij[:n] {
			c0 += bits.OnesCount64(x & r0[w])
			c1 += bits.OnesCount64(x & r1[w])
			c2 += bits.OnesCount64(x & r2[w])
			c3 += bits.OnesCount64(x & r3[w])
		}
		// Ragged rows: finish each one past the shared prefix.
		dst[k] = int32(c0 + andCount(ij, rows[k], n))
		dst[k+1] = int32(c1 + andCount(ij, rows[k+1], n))
		dst[k+2] = int32(c2 + andCount(ij, rows[k+2], n))
		dst[k+3] = int32(c3 + andCount(ij, rows[k+3], n))
	}
	for ; k < len(rows); k++ {
		dst[k] = int32(andCount(ij, rows[k], 0))
	}
}

// andCount returns |a ∩ b| over the words from `from` on.
func andCount(a, b []uint64, from int) int {
	n := min(len(a), len(b))
	total := 0
	for w := from; w < n; w++ {
		total += bits.OnesCount64(a[w] & b[w])
	}
	return total
}

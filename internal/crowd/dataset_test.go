package crowd

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(0, 5, 2); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewDataset(5, 0, 2); err == nil {
		t.Error("zero tasks accepted")
	}
	if _, err := NewDataset(5, 5, 1); !errors.Is(err, ErrArity) {
		t.Errorf("arity 1: err = %v, want ErrArity", err)
	}
	d, err := NewDataset(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers() != 3 || d.Tasks() != 4 || d.Arity() != 2 {
		t.Errorf("shape = %d×%d arity %d", d.Workers(), d.Tasks(), d.Arity())
	}
}

func TestNewDatasetRejectsOverflowingShape(t *testing.T) {
	// 2^62 × 4 wraps to 0 cells: the dataset would look valid and then
	// panic on its first SetResponse.
	if _, err := NewDataset(1<<62, 4, 2); err == nil {
		t.Error("accepted 2^62 workers × 4 tasks")
	}
	if _, err := NewDataset(3, math.MaxInt/2, 2); err == nil {
		t.Error("accepted 3 × MaxInt/2 cells")
	}
}

func TestSetGetResponse(t *testing.T) {
	d := MustNewDataset(2, 3, 3)
	if err := d.SetResponse(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got := d.Response(0, 1); got != 3 {
		t.Errorf("Response = %v, want 3", got)
	}
	if !d.Attempted(0, 1) || d.Attempted(0, 0) {
		t.Error("Attempted misreports")
	}
	// Removal via None.
	if err := d.SetResponse(0, 1, None); err != nil {
		t.Fatal(err)
	}
	if d.Attempted(0, 1) {
		t.Error("response not removed")
	}
}

func TestSetResponseOutOfRange(t *testing.T) {
	d := MustNewDataset(2, 2, 2)
	if err := d.SetResponse(0, 0, 3); !errors.Is(err, ErrArity) {
		t.Errorf("err = %v, want ErrArity", err)
	}
	if err := d.SetResponse(5, 0, 1); err == nil {
		t.Error("bad worker index accepted")
	}
	if err := d.SetResponse(0, 5, 1); err == nil {
		t.Error("bad task index accepted")
	}
}

func TestTruth(t *testing.T) {
	d := MustNewDataset(1, 2, 2)
	if d.HasTruth() {
		t.Error("empty dataset claims truth")
	}
	if err := d.SetTruth(0, Yes); err != nil {
		t.Fatal(err)
	}
	if d.HasTruth() {
		t.Error("partial truth claims complete")
	}
	if err := d.SetTruth(1, No); err != nil {
		t.Fatal(err)
	}
	if !d.HasTruth() {
		t.Error("complete truth not detected")
	}
	if d.Truth(0) != Yes || d.Truth(1) != No {
		t.Error("truth readback wrong")
	}
}

func TestResponseCountDensityRegular(t *testing.T) {
	d := MustNewDataset(2, 4, 2)
	for t2 := 0; t2 < 4; t2++ {
		d.SetResponse(0, t2, Yes)
	}
	d.SetResponse(1, 0, No)
	if got := d.ResponseCount(0); got != 4 {
		t.Errorf("ResponseCount(0) = %d", got)
	}
	if got := d.ResponseCount(1); got != 1 {
		t.Errorf("ResponseCount(1) = %d", got)
	}
	if got := d.Density(); math.Abs(got-5.0/8) > 1e-15 {
		t.Errorf("Density = %v", got)
	}
	if d.IsRegular() {
		t.Error("sparse dataset claims regular")
	}
	for t2 := 1; t2 < 4; t2++ {
		d.SetResponse(1, t2, Yes)
	}
	if !d.IsRegular() {
		t.Error("full dataset not regular")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := MustNewDataset(1, 1, 2)
	d.SetResponse(0, 0, Yes)
	d.SetTruth(0, No)
	c := d.Clone()
	c.SetResponse(0, 0, No)
	c.SetTruth(0, Yes)
	if d.Response(0, 0) != Yes || d.Truth(0) != No {
		t.Error("Clone shares storage")
	}
}

func TestSelectWorkers(t *testing.T) {
	d := MustNewDataset(3, 2, 2)
	d.SetResponse(0, 0, Yes)
	d.SetResponse(2, 1, No)
	d.SetTruth(0, Yes)
	sub, err := d.SelectWorkers([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Workers() != 2 {
		t.Fatalf("workers = %d", sub.Workers())
	}
	if sub.Response(0, 1) != No || sub.Response(1, 0) != Yes {
		t.Error("responses not remapped")
	}
	if sub.Truth(0) != Yes {
		t.Error("truth not carried")
	}
	if _, err := d.SelectWorkers(nil); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := d.SelectWorkers([]int{7}); err == nil {
		t.Error("out-of-range selection accepted")
	}
}

func TestPairStats(t *testing.T) {
	d := MustNewDataset(2, 5, 2)
	// Worker 0: Y Y Y N -, Worker 1: Y N - N N
	d.SetResponse(0, 0, Yes)
	d.SetResponse(0, 1, Yes)
	d.SetResponse(0, 2, Yes)
	d.SetResponse(0, 3, No)
	d.SetResponse(1, 0, Yes)
	d.SetResponse(1, 1, No)
	d.SetResponse(1, 3, No)
	d.SetResponse(1, 4, No)
	st := d.Pair(0, 1)
	if st.Common != 3 || st.Agree != 2 {
		t.Errorf("PairStats = %+v, want Common 3 Agree 2", st)
	}
	if math.Abs(st.Rate()-2.0/3) > 1e-15 {
		t.Errorf("Rate = %v", st.Rate())
	}
}

func TestPairStatsEmpty(t *testing.T) {
	d := MustNewDataset(2, 2, 2)
	st := d.Pair(0, 1)
	if st.Common != 0 || st.Rate() != 0 {
		t.Errorf("empty pair: %+v rate %v", st, st.Rate())
	}
}

func TestCommonTriple(t *testing.T) {
	d := MustNewDataset(3, 4, 2)
	for _, wt := range [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 1}, {2, 3}} {
		d.SetResponse(wt[0], wt[1], Yes)
	}
	if got := d.CommonTriple(0, 1, 2); got != 1 {
		t.Errorf("CommonTriple = %d, want 1 (task 1)", got)
	}
}

func TestPairMatrixSymmetry(t *testing.T) {
	d := MustNewDataset(3, 6, 2)
	d.SetResponse(0, 0, Yes)
	d.SetResponse(1, 0, No)
	d.SetResponse(2, 0, Yes)
	d.SetResponse(0, 1, Yes)
	d.SetResponse(1, 1, Yes)
	pm := d.PairMatrix()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if pm[i][j] != pm[j][i] {
				t.Errorf("PairMatrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	if pm[0][1].Common != 2 || pm[0][1].Agree != 1 {
		t.Errorf("pm[0][1] = %+v", pm[0][1])
	}
}

func TestMajorityVote(t *testing.T) {
	d := MustNewDataset(3, 3, 2)
	// Task 0: Y Y N → Y; task 1: N - N → N; task 2 unattempted → None.
	d.SetResponse(0, 0, Yes)
	d.SetResponse(1, 0, Yes)
	d.SetResponse(2, 0, No)
	d.SetResponse(0, 1, No)
	d.SetResponse(2, 1, No)
	maj := d.MajorityVote()
	if maj[0] != Yes || maj[1] != No || maj[2] != None {
		t.Errorf("MajorityVote = %v", maj)
	}
}

func TestMajorityVoteTieBreak(t *testing.T) {
	d := MustNewDataset(2, 1, 3)
	d.SetResponse(0, 0, 3)
	d.SetResponse(1, 0, 1)
	// Tie between classes 1 and 3 → deterministic smaller index.
	if got := d.MajorityVote()[0]; got != 1 {
		t.Errorf("tie-break = %v, want 1", got)
	}
}

func TestMajorityDisagreement(t *testing.T) {
	d := MustNewDataset(3, 4, 2)
	for t2 := 0; t2 < 4; t2++ {
		d.SetResponse(0, t2, Yes)
		d.SetResponse(1, t2, Yes)
		d.SetResponse(2, t2, No) // always against the majority
	}
	dis := d.MajorityDisagreement()
	if dis[0] != 0 || dis[1] != 0 || dis[2] != 1 {
		t.Errorf("MajorityDisagreement = %v", dis)
	}
}

func TestTensor3Basics(t *testing.T) {
	t3 := NewTensor3(2)
	t3.Add(1, 2, 0, 1)
	t3.Add(1, 2, 0, 2)
	if got := t3.At(1, 2, 0); got != 3 {
		t.Errorf("At = %v", got)
	}
	if got := t3.Total(); got != 3 {
		t.Errorf("Total = %v", got)
	}
	c := t3.Clone()
	c.Set(1, 2, 0, 0)
	if t3.At(1, 2, 0) != 3 {
		t.Error("Clone shares storage")
	}
}

func TestTensor3Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range tensor index did not panic")
		}
	}()
	NewTensor3(2).At(3, 0, 0)
}

func TestTensorAttendanceTotal(t *testing.T) {
	t3 := NewTensor3(2)
	t3.Add(1, 2, 1, 5) // all three attended
	t3.Add(1, 2, 0, 3) // only workers 1,2
	t3.Add(0, 1, 1, 2) // only workers 2,3
	if got := t3.AttendanceTotal([3]bool{true, true, true}); got != 5 {
		t.Errorf("all-three = %v", got)
	}
	if got := t3.AttendanceTotal([3]bool{true, true, false}); got != 3 {
		t.Errorf("pair 1,2 = %v", got)
	}
	if got := t3.AttendanceTotal([3]bool{false, true, true}); got != 2 {
		t.Errorf("pair 2,3 = %v", got)
	}
	if got := t3.AttendanceTotal([3]bool{true, false, false}); got != 0 {
		t.Errorf("only-1 = %v", got)
	}
}

func TestCountsTensor(t *testing.T) {
	d := MustNewDataset(3, 4, 2)
	// Task 0: (1,2,1); task 1: (1,2,0); task 2: unattempted; task 3: (0,0,2).
	d.SetResponse(0, 0, 1)
	d.SetResponse(1, 0, 2)
	d.SetResponse(2, 0, 1)
	d.SetResponse(0, 1, 1)
	d.SetResponse(1, 1, 2)
	d.SetResponse(2, 3, 2)
	t3 := d.CountsTensor(0, 1, 2)
	if t3.At(1, 2, 1) != 1 || t3.At(1, 2, 0) != 1 || t3.At(0, 0, 2) != 1 {
		t.Errorf("tensor contents wrong")
	}
	if t3.Total() != 3 {
		t.Errorf("Total = %v, want 3 (empty task excluded)", t3.Total())
	}
}

func TestTrueErrorRate(t *testing.T) {
	d := MustNewDataset(1, 4, 2)
	for t2 := 0; t2 < 4; t2++ {
		d.SetTruth(t2, Yes)
	}
	d.SetResponse(0, 0, Yes)
	d.SetResponse(0, 1, No)
	d.SetResponse(0, 2, No)
	got, err := d.TrueErrorRate(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0/3) > 1e-15 {
		t.Errorf("TrueErrorRate = %v, want 2/3", got)
	}
}

func TestTrueErrorRateNoGold(t *testing.T) {
	d := MustNewDataset(1, 2, 2)
	d.SetResponse(0, 0, Yes)
	if _, err := d.TrueErrorRate(0); !errors.Is(err, ErrNoGold) {
		t.Errorf("err = %v, want ErrNoGold", err)
	}
}

func TestTrueConfusion(t *testing.T) {
	d := MustNewDataset(1, 6, 2)
	// Truth: 3×Yes, 3×No. Worker answers Yes-tasks correctly 2/3, No 3/3.
	for t2 := 0; t2 < 3; t2++ {
		d.SetTruth(t2, Yes)
		d.SetTruth(t2+3, No)
	}
	d.SetResponse(0, 0, Yes)
	d.SetResponse(0, 1, Yes)
	d.SetResponse(0, 2, No)
	d.SetResponse(0, 3, No)
	d.SetResponse(0, 4, No)
	d.SetResponse(0, 5, No)
	conf, hasRow, err := d.TrueConfusion(0)
	if err != nil {
		t.Fatal(err)
	}
	if !hasRow[0] || !hasRow[1] {
		t.Fatalf("hasRow = %v", hasRow)
	}
	if math.Abs(conf[0][0]-2.0/3) > 1e-15 || math.Abs(conf[0][1]-1.0/3) > 1e-15 {
		t.Errorf("row 0 = %v", conf[0])
	}
	if conf[1][1] != 1 {
		t.Errorf("row 1 = %v", conf[1])
	}
}

func TestGoldSelectivity(t *testing.T) {
	d := MustNewDataset(1, 4, 2)
	d.SetTruth(0, Yes)
	d.SetTruth(1, Yes)
	d.SetTruth(2, Yes)
	d.SetTruth(3, No)
	s, err := d.GoldSelectivity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-0.75) > 1e-15 || math.Abs(s[1]-0.25) > 1e-15 {
		t.Errorf("selectivity = %v", s)
	}
	empty := MustNewDataset(1, 1, 2)
	if _, err := empty.GoldSelectivity(); !errors.Is(err, ErrNoGold) {
		t.Errorf("err = %v, want ErrNoGold", err)
	}
}

func TestCollapseArity(t *testing.T) {
	d := MustNewDataset(1, 3, 6)
	d.SetResponse(0, 0, 1)
	d.SetResponse(0, 1, 4)
	d.SetResponse(0, 2, 6)
	d.SetTruth(0, 2)
	// The paper's MOOC reduction: grade g → ⌈g/2⌉.
	half := func(r Response) Response { return (r + 1) / 2 }
	c, err := d.CollapseArity(3, half)
	if err != nil {
		t.Fatal(err)
	}
	if c.Response(0, 0) != 1 || c.Response(0, 1) != 2 || c.Response(0, 2) != 3 {
		t.Error("responses not collapsed")
	}
	if c.Truth(0) != 1 {
		t.Error("truth not collapsed")
	}
	// Bad mapping must error.
	if _, err := d.CollapseArity(2, func(r Response) Response { return 5 }); err == nil {
		t.Error("invalid classOf accepted")
	}
}

func TestValidate(t *testing.T) {
	d := MustNewDataset(1, 2, 2)
	d.SetResponse(0, 0, Yes)
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	d.resp[1] = 9 // corrupt storage directly
	if err := d.Validate(); !errors.Is(err, ErrArity) {
		t.Errorf("corruption not detected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := MustNewDataset(2, 3, 3)
	d.SetResponse(0, 0, 1)
	d.SetResponse(0, 2, 3)
	d.SetResponse(1, 1, 2)
	d.SetTruth(0, 1)
	d.SetTruth(2, 2)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workers() != 2 || back.Tasks() != 3 || back.Arity() != 3 {
		t.Fatalf("shape lost: %d×%d arity %d", back.Workers(), back.Tasks(), back.Arity())
	}
	for w := 0; w < 2; w++ {
		for t2 := 0; t2 < 3; t2++ {
			if back.Response(w, t2) != d.Response(w, t2) {
				t.Errorf("response (%d,%d) = %v, want %v", w, t2, back.Response(w, t2), d.Response(w, t2))
			}
		}
	}
	for t2 := 0; t2 < 3; t2++ {
		if back.Truth(t2) != d.Truth(t2) {
			t.Errorf("truth %d lost", t2)
		}
	}
}

func TestJSONNoTruthOmitted(t *testing.T) {
	d := MustNewDataset(1, 1, 2)
	d.SetResponse(0, 0, Yes)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("truth")) {
		t.Error("truth field serialized for truthless dataset")
	}
}

// Property: agreement statistics are symmetric and bounded by common count.
func TestPairStatsProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := MustNewDataset(4, 12, 3)
		s := seed
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			v := int((s >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		for w := 0; w < 4; w++ {
			for t2 := 0; t2 < 12; t2++ {
				d.SetResponse(w, t2, Response(next(4))) // 0..3 incl. None
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				a, b := d.Pair(i, j), d.Pair(j, i)
				if a != b {
					return false
				}
				if a.Agree > a.Common {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

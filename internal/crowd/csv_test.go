package crowd

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := strings.NewReader(
		"worker,task,response,truth\n" +
			"alice,t1,1,1\n" +
			"bob,t1,2,1\n" +
			"alice,t2,2,\n" +
			"carol,t2,2,\n")
	ds, workers, tasks, err := ReadCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 3 || len(tasks) != 2 {
		t.Fatalf("%d workers, %d tasks", len(workers), len(tasks))
	}
	if workers[0] != "alice" || tasks[0] != "t1" {
		t.Errorf("id order: %v %v", workers, tasks)
	}
	if ds.Arity() != 2 {
		t.Errorf("arity %d", ds.Arity())
	}
	if ds.Response(0, 0) != 1 || ds.Response(1, 0) != 2 || ds.Response(2, 1) != 2 {
		t.Error("responses misplaced")
	}
	if ds.Truth(0) != 1 || ds.Truth(1) != None {
		t.Error("truth misplaced")
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	in := strings.NewReader("w1,t1,1\nw2,t1,3\n")
	ds, _, _, err := ReadCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Arity() != 3 {
		t.Errorf("arity %d, want 3 (largest class)", ds.Arity())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"worker,task,response\n", // header only
		"w1,t1\n",                // too few fields
		"w1,t1,0\n",              // class < 1
		"worker,task,response\nw1,t1,notanumber\n", // bad data row after header
		"w1,t1,1,0\n",            // truth < 1
		"w1,t1,1\nw1,t1,2\n",     // duplicate response
		"w1,t1,1,1\nw2,t1,1,2\n", // conflicting truth
	}
	for i, c := range cases {
		if _, _, _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := MustNewDataset(3, 4, 3)
	_ = d.SetResponse(0, 0, 1)
	_ = d.SetResponse(0, 2, 3)
	_ = d.SetResponse(1, 1, 2)
	_ = d.SetResponse(2, 3, 1)
	_ = d.SetTruth(0, 1)
	_ = d.SetTruth(2, 3)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, _, _, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Arity() != 3 {
		t.Fatalf("arity %d", back.Arity())
	}
	// Identifier order is deterministic (worker-major scan), so responses
	// land on the same dense indices for attempted cells.
	if back.Workers() != 3 || back.Tasks() != 4 {
		t.Fatalf("shape %d×%d", back.Workers(), back.Tasks())
	}
	type wt struct{ w, t int }
	want := map[wt]Response{{0, 0}: 1, {0, 1}: 3, {1, 2}: 2, {2, 3}: 1}
	// Note: unattempted tasks are renumbered by first appearance, so task
	// indices shift: original tasks (0,2,1,3) → (0,1,2,3).
	for k, v := range want {
		if got := back.Response(k.w, k.t); got != v {
			t.Errorf("response (%d,%d) = %v, want %v", k.w, k.t, got, v)
		}
	}
	if back.Truth(0) != 1 || back.Truth(1) != 3 {
		t.Error("truth lost in round trip")
	}
}

func TestWriteCSVNoTruthColumn(t *testing.T) {
	d := MustNewDataset(1, 1, 2)
	_ = d.SetResponse(0, 0, Yes)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "truth") {
		t.Errorf("truth column emitted for truthless dataset:\n%s", buf.String())
	}
}

// FuzzReadCSV checks that ReadCSV never panics, and that whatever it
// accepts survives WriteCSV and ReadCSV: every (worker ID, task ID) pair
// keeps its response and truth. WriteCSV names worker and task i "w<i>"
// and "t<i>", and may list tasks in a new order, so the two reads are
// matched through their returned ID slices.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"worker,task,response,truth\nalice,t1,1,1\nbob,t1,2,1\nalice,t2,2,\ncarol,t2,2,\n",
		"w1,t1,1\nw2,t1,3\n",
		"w1,t2,1\r\nw1,t1,2\r\nw2,t1,1,2\r\n",
		"\"a,b\",\"t\n1\",2,2\n\"a\"\"\",t1,1\n",
		"worker,task,response\nw1,t1,notanumber\n",
		"w1,t1,1\nw1,t1,2\n",
		"w1,t1,1,1\nw2,t1,1,2\n",
		"w1,t1,9223372036854775807\n",
		"w1,t1\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every record may add a worker and a task, so cap the records at
		// 1<<10 to keep the workers×tasks matrix within 1<<20 cells.
		if bytes.Count(data, []byte{'\n'}) >= 1<<10 {
			return
		}
		ds, workers, tasks, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(workers) != ds.Workers() || len(tasks) != ds.Tasks() {
			t.Fatalf("%d worker IDs and %d task IDs for a %d×%d dataset", len(workers), len(tasks), ds.Workers(), ds.Tasks())
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, backWorkers, backTasks, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("written CSV does not parse: %v\n%s", err, buf.Bytes())
		}
		if back.Workers() != ds.Workers() || back.Tasks() != ds.Tasks() || back.Arity() != ds.Arity() {
			t.Fatalf("round trip changed %d×%d arity %d to %d×%d arity %d",
				ds.Workers(), ds.Tasks(), ds.Arity(), back.Workers(), back.Tasks(), back.Arity())
		}
		// index maps a written ID "<prefix><i>" back to i.
		index := func(ids []string, prefix string) []int {
			at := make([]int, len(ids))
			for j, id := range ids {
				i, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
				if err != nil || i < 0 || i >= len(ids) {
					t.Fatalf("unexpected written ID %q", id)
				}
				at[i] = j
			}
			return at
		}
		bw, bt := index(backWorkers, "w"), index(backTasks, "t")
		for w := range workers {
			for tk := range tasks {
				if got, want := back.Response(bw[w], bt[tk]), ds.Response(w, tk); got != want {
					t.Fatalf("worker %q task %q: response %d after the round trip, want %d", workers[w], tasks[tk], got, want)
				}
			}
		}
		for tk := range tasks {
			if got, want := back.Truth(bt[tk]), ds.Truth(tk); got != want {
				t.Fatalf("task %q: truth %d after the round trip, want %d", tasks[tk], got, want)
			}
		}
	})
}

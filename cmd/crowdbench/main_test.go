package main

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestParseCountList: the -ingest/-dist count lists reject malformed,
// non-positive and absurd values with errors that name the flag, instead
// of propagating them into the benchmark.
func TestParseCountList(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"1", []int{1}},
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{" 2 , 4 ", []int{2, 4}},
	}
	for _, tc := range good {
		got, err := parseCountList("-ingest", tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCountList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	bad := []string{
		"",                         // empty list
		"1,,2",                     // empty field
		"1,2,",                     // trailing comma
		"0",                        // non-positive
		"-4",                       // negative
		"2,-1",                     // negative in the middle
		"abc",                      // not a number
		"3.5",                      // not an integer
		"1e3",                      // scientific notation is not a count
		"999999999999999999999999", // overflow
		"99999",                    // beyond the sanity cap
	}
	for _, in := range bad {
		got, err := parseCountList("-dist", in)
		if err == nil {
			t.Errorf("parseCountList(%q) accepted: %v", in, got)
			continue
		}
		if !strings.Contains(err.Error(), "-dist") {
			t.Errorf("parseCountList(%q) error %q does not name the flag", in, err)
		}
	}
}

// TestValidateCounts: the count flags reject nonsense with errors that
// name the flag, while zero keeps its documented default-selecting
// meaning where one exists.
func TestValidateCounts(t *testing.T) {
	if err := validateCounts(0, 64, 4000, 0, 2); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := validateCounts(500, 8, 100, 4, 1); err != nil {
		t.Errorf("valid counts rejected: %v", err)
	}
	cases := []struct {
		name                                           string
		replicates, workers, tasks, goroutines, shards int
		flag                                           string
	}{
		{"negative replicates", -1, 64, 4000, 0, 2, "-replicates"},
		{"zero workers", 0, 0, 4000, 0, 2, "-ingest-workers"},
		{"negative tasks", 0, 64, -5, 0, 2, "-ingest-tasks"},
		{"negative goroutines", 0, 64, 4000, -1, 2, "-ingest-goroutines"},
		{"zero shards", 0, 64, 4000, 0, 0, "-dist-shards"},
	}
	for _, c := range cases {
		err := validateCounts(c.replicates, c.workers, c.tasks, c.goroutines, c.shards)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: err = %v, want an error naming %s", c.name, err, c.flag)
		}
	}
}

// TestRunLatencyRecordsBothGOMAXPROCS checks that -latency emits the
// evaluate rounds at GOMAXPROCS 1 and at the process's own setting under
// distinct experiment names, and restores GOMAXPROCS afterwards.
func TestRunLatencyRecordsBothGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	records, err := runLatency(1, 9, 200, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, r := range records {
		got[r.Experiment] = r.GoMaxProcs
		if r.Samples == 0 {
			t.Errorf("%s: no samples", r.Experiment)
		}
	}
	want := map[string]int{"latency/ingest": 2, "latency/evaluate/serial": 1, "latency/evaluate": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records (experiment → gomaxprocs) = %v, want %v", got, want)
	}
	if n := runtime.GOMAXPROCS(0); n != 2 {
		t.Errorf("GOMAXPROCS after runLatency = %d, want 2 restored", n)
	}
}

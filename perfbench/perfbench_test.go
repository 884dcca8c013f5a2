package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"crowdassess/internal/dist"
)

func tinyOptions(t *testing.T) options {
	return options{seed: 7, window: 300 * time.Millisecond, setups: 2, out: t.TempDir(), tiny: true}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with
// the program's own metric tables.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestRegistryMatchesProgram: BENCHMARK.json registers exactly the
// workloads and metrics, with the units, that the program reports.
func TestRegistryMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: registered %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d registered, program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: registered %s %s, program %s %s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}

// TestEveryMetricPrintsWithUnit runs every workload at tiny size, untraced
// and traced, and checks that each registered metric is printed with its
// unit, appears in the result line, and that the output checks pass.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				var out bytes.Buffer
				res, err := execute(w, tinyOptions(t), traced, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %t failed %d attempted %d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in result, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s: result has %+v, want unit %s", d.name, m, d.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("%s = %v, want > 0", d.name, m.Value)
					}
					if !strings.Contains(out.String(), "metric "+d.name+" ") {
						t.Errorf("%s not printed", d.name)
					}
				}
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) > 0 && f[0] == "metric" && (len(f) != 4 || f[3] == "") {
						t.Errorf("metric line without a unit: %q", line)
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceTripsCheck: with one bit of the reference flipped,
// every workload's output check fails the run.
func TestCorruptedReferenceTripsCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions(t)
			o.corrupt = true
			var out bytes.Buffer
			res, err := execute(w, o, false, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference passed the check: correct %t failed %d", res.Correct, res.Failed)
			}
		})
	}
}

// TestOpenLoopScheduleHolds drives the open-loop runner against a stub
// that sleeps instead of serving. Below capacity every request goes out on
// time. Above capacity requests queue, and each one's latency counts from
// its due time, so the wait a stall imposes on later requests shows.
func TestOpenLoopScheduleHolds(t *testing.T) {
	sh := serveShape{workers: 3, ingestHz: 100}
	stub := func(d time.Duration) func(op, []dist.Response) outcome {
		return func(op, []dist.Response) outcome {
			o := outcome{sent: time.Now()}
			time.Sleep(d)
			o.done = time.Now()
			return o
		}
	}
	none := func(op) []dist.Response { return nil }

	ops := plan(sh, time.Second, 1, nil, 1)
	if len(ops) != 100 {
		t.Fatalf("planned %d requests, want 100", len(ops))
	}
	outs, _ := openLoop(ops, 2, none, stub(2*time.Millisecond))
	var late samples
	for i, o := range outs {
		late.addDur(o.sent.Sub(o.due))
		if i > 0 && o.due.Sub(outs[i-1].due) != 10*time.Millisecond {
			t.Fatalf("request %d due %v after the previous one, want 10ms", i, o.due.Sub(outs[i-1].due))
		}
	}
	if p50 := late.p50(); p50 > 2 {
		t.Errorf("below capacity the median request went out %.2fms late", p50)
	}

	// 2 senders × 20ms per request serve 100/s; 200/s for half a second
	// leaves the last of 100 requests waiting about half a second.
	sh.ingestHz = 200
	ops = plan(sh, 500*time.Millisecond, 1, nil, 1)
	outs, _ = openLoop(ops, 2, none, stub(20*time.Millisecond))
	last := outs[len(outs)-1]
	if lat := last.done.Sub(last.due); lat < 400*time.Millisecond {
		t.Errorf("overloaded: last request took %v from its due time, want at least 400ms", lat)
	}
	backlog := 0
	for _, o := range outs {
		backlog = max(backlog, o.backlog)
	}
	if backlog < 20 {
		t.Errorf("overloaded: largest backlog %d, want at least 20", backlog)
	}
}

func TestTailIsNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if v, beyond := s.tail(95); v != 95 || beyond != 5 {
		t.Fatalf("tail(95) of 1..100 = %v with %d beyond, want 95 with 5", v, beyond)
	}
	if v := s.p50(); v != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", v)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 2, End: 4},
		{ID: 3, Parent: 1, Name: "child", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "child", Start: 8, End: 12},
	}
	self := selfTimes(spans)
	if self["parent"] != 4 || self["child"] != 9 {
		t.Fatalf("self times %v, want parent 4 child 9", self)
	}
}

func TestSameEstimatesComparesBits(t *testing.T) {
	want, err := reference(9, mustStream(t))
	if err != nil {
		t.Fatal(err)
	}
	got := append(want[:0:0], want...)
	if err := sameEstimates(got, want); err != nil {
		t.Fatal(err)
	}
	got[1].Interval.Hi = math.Nextafter(got[1].Interval.Hi, 2)
	if sameEstimates(got, want) == nil {
		t.Fatal("a one-ulp difference passed")
	}
}

func mustStream(t *testing.T) []dist.Response {
	t.Helper()
	subs, err := binaryStream(3, 9, 200, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// Command perfbench is the repository benchmark. One invocation runs one
// workload against the system in-process, checks every output against a
// reference, and prints every metric with its unit, ending with one JSON
// line:
//
//	bash perfbench/run.sh --workload cluster-evaluate --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, plus the tracing
// overhead measured against an untraced run in the same process.
// README.md gives each workload's reason and each metric's meaning.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"crowdassess/internal/core"
)

// options is what every workload receives.
type options struct {
	seed   int64
	window time.Duration // the timed window
	setups int           // how many times set-up runs; the last one is kept
	out    string        // directory for traces and on-disk state
	tiny   bool          // test sizes
	// corrupt flips one bit of every reference before the check, so a
	// test can show that the check catches a wrong result.
	corrupt bool
}

// tamper flips the lowest bit of the first usable interval's lower end
// when o.corrupt is set.
func (o options) tamper(ests []core.WorkerEstimate) {
	if !o.corrupt {
		return
	}
	for i := range ests {
		if ests[i].Err == nil {
			ests[i].Interval.Lo = math.Float64frombits(math.Float64bits(ests[i].Interval.Lo) ^ 1)
			return
		}
	}
}

// workload is one named input set. run performs set-up, the timed window
// and the output check, and reports what it measured; tr is nil for an
// untraced run.
type workload struct {
	name string
	run  func(o options, tr *tracer) (*report, error)
}

var workloads = []workload{
	{"cluster-evaluate", runClusterEvaluate},
	{"serve-mixed", runServeMixed},
	{"durable-ingest", runDurableIngest},
	{"batch-assess", runBatchAssess},
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for traces and on-disk state")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of cluster-evaluate, serve-mixed, durable-ingest, batch-assess), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		setups: setupRepeats,
		out:    filepath.Join(*out, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())),
	}
	res, err := execute(*w, o, *traced == 1, os.Stdout)
	if rmErr := os.RemoveAll(o.out); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and prints its detail lines. An untraced run
// reports the end-to-end metrics. A traced run first repeats the untraced
// window, then runs traced; the per-layer metrics come from the traced
// pass and trace.overhead_ms is the difference of the two op medians.
func execute(w workload, o options, traced bool, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "workload %s seed %d gomaxprocs %d nproc %d window %s trace %t\n",
		w.name, o.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), o.window, traced)
	defs := endToEnd
	var tr *tracer
	if traced {
		defs = perLayer
		o.setups = 1
	}
	rep, err := w.run(o, nil)
	if err != nil {
		return nil, err
	}
	if traced {
		untraced := rep
		tr = newTracer()
		if rep, err = w.run(o, tr); err != nil {
			return nil, err
		}
		rep.attempted += untraced.attempted
		rep.failed += untraced.failed
		rep.set("trace.overhead_ms", rep.values["op_p50_ms"]-untraced.values["op_p50_ms"])
		spans := tr.snapshot()
		rep.set("trace.spans", float64(len(spans)))
		path, err := tr.write(filepath.Dir(o.out), w.name, o.seed)
		if err != nil {
			return nil, err
		}
		self := selfTimes(spans)
		for _, s := range sortedKeys(self) {
			rep.detail("self_ms "+s, float64(self[s])/1e6, "ms")
		}
		rep.details = append(rep.details, "trace_file "+path)
	}
	rep.detail("failed_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio",
		"attempted="+strconv.Itoa(rep.attempted))
	for _, d := range rep.details {
		fmt.Fprintln(out, d)
	}
	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %-28s %s %s\n", d.name, strconv.FormatFloat(v, 'f', -1, 64), d.unit)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

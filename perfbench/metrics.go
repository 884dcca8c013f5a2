package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one registered metric: its name and unit as BENCHMARK.json
// lists them.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, on every workload.
// What "op" means differs per workload; README.md maps it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"responses_per_s", "responses/s"},
}

// perLayer are the metrics every traced run reports. A workload that does
// not call a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"gate.handler_ms.ingest", "ms"},
	{"gate.handler_ms.query", "ms"},
	{"gate.handler_ms.review", "ms"},
	{"client.overhead_ms.ingest", "ms"},
	{"gate.shed_ratio", "ratio"},
	{"pool.ingest_wait_ms", "ms"},
	{"pool.decisions", "count"},
	{"core.add_ns", "ns"},
	{"core.adds", "count"},
	{"core.subset_ms.query", "ms"},
	{"core.subset_ms.review", "ms"},
	{"core.majority_ms", "ms"},
	{"dist.merge_ms", "ms"},
	{"dist.pull_ms", "ms"},
	{"dist.pull_bytes", "bytes"},
	{"dist.fold_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.solve_ms.serial", "ms"},
	{"core.worker_solve_ms.p50", "ms"},
	{"core.worker_solve_ms.max", "ms"},
	{"core.triples_per_worker", "count"},
	{"core.failed_estimates", "count"},
	{"dist.ingest_rpc_ms", "ms"},
	{"dist.bytes_per_response", "bytes"},
	{"store.fsync_ms", "ms"},
	{"store.fsyncs_per_batch", "count"},
	{"store.write_ms", "ms"},
	{"store.bytes_per_response", "bytes"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshot_bytes", "bytes"},
	{"store.recover_ms", "ms"},
	{"store.replayed_records", "count"},
	{"crowd.parse_ms", "ms"},
	{"crowd.parse_mb_per_s", "MB/s"},
	{"core.batch_a2_ms", "ms"},
	{"core.kary_ms", "ms"},
	{"core.kary_triples", "count"},
	{"gen.late_ms", "ms"},
	{"gen.backlog", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// samples is a set of raw measurements; every quantile is computed
// exactly from them, never interpolated inside histogram buckets.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least a fraction q of the samples at or below it. It is 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

func (s samples) max() float64 {
	m := 0.0
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tail returns the pct-th percentile and how many samples lie above its
// rank. A workload fixes pct so that every run reports the same
// percentile; it is chosen so a normal run has at least ten samples
// beyond it, and the detail line shows the count for a run that has not.
func (s samples) tail(pct float64) (value float64, beyond int) {
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	return s.quantile(pct / 100), len(s) - rank
}

// report is what one run measured: end-to-end or per-layer values plus
// the human-readable detail lines that name each workload's own metrics.
type report struct {
	attempted, failed int
	values            map[string]float64
	details           []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a registered metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// detail records a workload-specific metric line: name, value and unit,
// with the sample count and percentile when the value is a quantile.
func (r *report) detail(name string, v float64, unit string, extra ...string) {
	line := fmt.Sprintf("%-28s %14s %-12s", name, strconv.FormatFloat(v, 'f', -1, 64), unit)
	if len(extra) > 0 {
		line += " " + strings.Join(extra, " ")
	}
	r.details = append(r.details, line)
}

// latency records a latency sample set as <prefix>_p50_ms and
// <prefix>_tail_ms detail lines, the tail at the pct-th percentile, and
// returns p50 and tail.
func (r *report) latency(prefix string, s samples, pct float64) (p50, tail float64) {
	tail, beyond := s.tail(pct)
	n := fmt.Sprintf("n=%d", len(s))
	r.detail(prefix+"_p50_ms", s.p50(), "ms", n)
	r.detail(prefix+"_tail_ms", tail, "ms", n, fmt.Sprintf("p%g beyond=%d", pct, beyond))
	return s.p50(), tail
}

// fail counts one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// markHeap records heap_mb, the heap still in use after a full
// collection. Workloads call it right after set-up: that state is the
// same for every run of a seed, while the heap after the window also
// moves with how much a closed loop got through.
func (r *report) markHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_mb", float64(ms.HeapAlloc)/(1<<20))
}

// markRSS reports the process's peak resident set size as a detail line.
// Workloads call it when the timed window ends, before the output check
// builds its reference.
func (r *report) markRSS() error {
	rss, err := peakRSSMB()
	r.detail("rss_peak_mb", rss, "MB")
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// memWindow measures the Go runtime's allocation and GC pauses over a
// timed window.
type memWindow struct {
	start runtime.MemStats
}

func startMem() *memWindow {
	m := &memWindow{}
	runtime.ReadMemStats(&m.start)
	return m
}

// finish reports bytes allocated per operation and the total GC pause in
// the window.
func (m *memWindow) finish(r *report, ops int) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if ops > 0 {
		r.set("runtime.alloc_bytes_per_op", float64(end.TotalAlloc-m.start.TotalAlloc)/float64(ops))
	}
	r.set("runtime.gc_pause_ms", float64(end.PauseTotalNs-m.start.PauseTotalNs)/1e6)
}

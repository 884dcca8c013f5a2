package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op that costs one nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
	// bound maps an OS thread to the span of the request its goroutine is
	// serving. The serving goroutine stays locked to its thread for the
	// request (see bind), so a wrapper called from code that takes no
	// context, such as the evaluator inside pool.Manager, finds its
	// request by thread ID for the price of one gettid system call.
	bound map[int]openSpan
}

type openSpan struct{ id, req uint64 }

func newTracer() *tracer { return &tracer{epoch: time.Now(), bound: map[int]openSpan{}} }

// active is an open span returned by begin and closed by end.
type active struct {
	t     *tracer
	s     span
	tid   int
	outer openSpan
}

// begin opens a span. With parent 0 the span is a root and starts its own
// request.
func (t *tracer) begin(name string, parent, req uint64) *active {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	if req == 0 {
		req = id
	}
	return &active{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// bind opens a span for a request served on the calling goroutine, locks
// the goroutine to its OS thread and binds the span to that thread until
// the span ends.
func (t *tracer) bind(name string, parent, req uint64) *active {
	if t == nil {
		return nil
	}
	runtime.LockOSThread()
	a := t.begin(name, parent, req)
	a.tid = syscall.Gettid()
	t.mu.Lock()
	a.outer = t.bound[a.tid]
	t.bound[a.tid] = openSpan{a.s.ID, a.s.Req}
	t.mu.Unlock()
	return a
}

// beginBound opens a span whose parent is the request span bound to the
// calling thread, or a root span when none is.
func (t *tracer) beginBound(name string) *active {
	if t == nil {
		return nil
	}
	tid := syscall.Gettid()
	t.mu.Lock()
	outer := t.bound[tid]
	t.mu.Unlock()
	return t.begin(name, outer.id, outer.req)
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	t := a.t
	a.s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, a.s)
	if a.tid != 0 {
		if a.outer.id == 0 {
			delete(t.bound, a.tid)
		} else {
			t.bound[a.tid] = a.outer
		}
	}
	t.mu.Unlock()
	if a.tid != 0 {
		runtime.UnlockOSThread()
	}
	return a.s.dur()
}

// id returns the span's ID, or 0 for an untraced span.
func (a *active) id() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the durations, in milliseconds, of every span with the
// given name.
func byName(spans []span, name string) samples {
	var s samples
	for _, sp := range spans {
		if sp.Name == name {
			s.addDur(sp.dur())
		}
	}
	return s
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write stores the spans as JSON lines, followed by one line per span
// name with its count and total self time, and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	spans := t.snapshot()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	self := selfTimes(spans)
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
	}
	for _, n := range sortedKeys(self) {
		line := struct {
			Layer  string  `json:"layer"`
			Spans  int     `json:"spans"`
			SelfMS float64 `json:"self_ms"`
		}{n, counts[n], float64(self[n]) / 1e6}
		if err := enc.Encode(line); err != nil {
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}

// child opens a span caused by a, in a's request.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return a.t.begin(name, a.s.ID, a.s.Req)
}

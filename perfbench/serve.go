package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdassess/client"
	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/dist"
	"crowdassess/internal/gate"
	"crowdassess/internal/obs"
	"crowdassess/internal/pool"
	"crowdassess/internal/randx"
)

// serveShape sizes serve-mixed: one local sharded tenant whose tasks
// arrive in order, served through /v1 at fixed rates below the knee, then
// a ladder of higher ingest rates.
type serveShape struct {
	workers, shards int
	density         float64
	preloadTasks    int
	// Fixed rates in requests per second. Queries and reviews keep their
	// rates on the ladder; only ingest climbs.
	ingestHz, queryHz, reviewHz float64
	warmup                      time.Duration
	fixedShare                  float64   // share of the window at the fixed rates
	rungs                       []float64 // ladder ingest rates, batches per second
	tailLimit                   time.Duration
}

func (o options) serveShape() serveShape {
	if o.tiny {
		return serveShape{workers: 12, shards: 2, density: 0.5, preloadTasks: 150,
			ingestHz: 50, queryHz: 10, reviewHz: 2, warmup: 100 * time.Millisecond,
			fixedShare: 0.7, rungs: []float64{75, 110}, tailLimit: 250 * time.Millisecond}
	}
	return serveShape{workers: 128, shards: runtime.NumCPU(), density: 0.3, preloadTasks: 4000,
		ingestHz: 100, queryHz: 20, reviewHz: 1, warmup: 500 * time.Millisecond,
		fixedShare: 0.7, rungs: []float64{200, 400, 800, 1600}, tailLimit: 250 * time.Millisecond}
}

// servePolicy never fires a worker of the generated crowd (error rates
// 0.1 and 0.2), so every acknowledged response stays recorded and the
// check's reference needs no model of the lifecycle.
var servePolicy = pool.Policy{Confidence: evalOpts.Confidence, FireAbove: 0.45, PromoteBelow: 0.3,
	SpammerDisagreement: 0.9, MinResponses: 50}

type opKind int

const (
	opIngest opKind = iota
	opQuery
	opReview
)

func (k opKind) String() string { return [...]string{"ingest", "query", "review"}[k] }

// op is one scheduled request: due is its offset from the schedule's
// start, phase 0 the fixed rates and phase r the r-th ladder rung.
type op struct {
	kind   opKind
	due    time.Duration
	phase  int
	worker int
}

// plan lays out the open-loop schedule for a window: ingest at the fixed
// rate for fixedShare of it, then each rung for an equal share of the
// rest; queries and reviews at their fixed rates throughout.
func plan(sh serveShape, window time.Duration, fixedShare float64, rungs []float64, seed int64) []op {
	var ops []op
	every := func(kind opKind, hz float64, from, to time.Duration, phase int) {
		if hz <= 0 {
			return
		}
		period := time.Duration(float64(time.Second) / hz)
		for t := from; t < to; t += period {
			ops = append(ops, op{kind: kind, due: t, phase: phase})
		}
	}
	fixed := time.Duration(float64(window) * fixedShare)
	every(opIngest, sh.ingestHz, 0, fixed, 0)
	if len(rungs) > 0 {
		rung := (window - fixed) / time.Duration(len(rungs))
		for r, hz := range rungs {
			every(opIngest, hz, fixed+time.Duration(r)*rung, fixed+time.Duration(r+1)*rung, r+1)
		}
	}
	phaseAt := func(t time.Duration) int {
		if t < fixed || len(rungs) == 0 {
			return 0
		}
		return min(int((t-fixed)/((window-fixed)/time.Duration(len(rungs))))+1, len(rungs))
	}
	for _, k := range []opKind{opQuery, opReview} {
		hz := sh.queryHz
		if k == opReview {
			hz = sh.reviewHz
		}
		if hz <= 0 {
			continue
		}
		period := time.Duration(float64(time.Second) / hz)
		for t := period / 2; t < window; t += period {
			ops = append(ops, op{kind: k, due: t, phase: phaseAt(t)})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	src := randx.NewSource(seed)
	for i := range ops {
		if ops[i].kind == opQuery {
			ops[i].worker = src.Intn(sh.workers)
		}
	}
	return ops
}

// responseStream cuts the task-ordered response stream into batches.
type responseStream struct {
	src  taskSource
	task int
	buf  []dist.Response
}

func (s *responseStream) next(n int) []dist.Response {
	for len(s.buf) < n {
		s.buf = s.src.task(s.task, s.buf)
		s.task++
	}
	out := append([]dist.Response(nil), s.buf[:n]...)
	s.buf = append(s.buf[:0], s.buf[n:]...)
	return out
}

// outcome is what happened to one scheduled request.
type outcome struct {
	due, sent, done time.Time
	backlog         int // requests already due when this one was taken
	err             error
	decisions       []client.Decision
}

// server is one set-up of serve-mixed: a gateway on loopback TCP, the
// client talking to it, and the responses it has acknowledged.
type server struct {
	sh      serveShape
	reg     *obs.Registry
	srv     *http.Server
	serving chan error
	tr      *transport
	cl      *client.Client
	stream  *responseStream
	// tracing is the tracer the traced handler and evaluator report to.
	// It stays nil through set-up, so only the timed window is traced.
	tracing atomic.Pointer[tracer]

	mu    sync.Mutex
	acked []dist.Response
}

const serveTenant, serveToken = "bench", "bench-token"

// startServer builds one set-up. With traced set, the gateway and its
// evaluator are wrapped to report to s.tracing.
func startServer(sh serveShape, seed int64, traced bool) (*server, error) {
	s := &server{sh: sh, reg: obs.NewRegistry(nil),
		stream: &responseStream{src: newTaskSource(seed, sh.workers, sh.density, []float64{0.1, 0.2})}}
	policy := servePolicy
	tc := gate.TenantConfig{Name: serveTenant, Token: serveToken, Workers: sh.workers, Shards: sh.shards, Policy: &policy}
	if traced {
		inner, err := core.NewStreaming(sh.workers, core.IncrementalOptions{Shards: sh.shards})
		if err != nil {
			return nil, err
		}
		if tc.Manager, err = pool.NewManagerWith(&tracedEvaluator{StreamingEvaluator: inner, tr: &s.tracing}, policy); err != nil {
			return nil, err
		}
	}
	gw, err := gate.New(gate.Options{Tenants: []gate.TenantConfig{tc}, Registry: s.reg})
	if err != nil {
		return nil, err
	}
	mgr := gw.Tenant(serveTenant)
	for task := 0; task < sh.preloadTasks; task++ {
		for _, r := range s.stream.src.task(task, nil) {
			if err := mgr.Record(r.Worker, r.Task, r.Answer); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			s.acked = append(s.acked, r)
		}
	}
	s.stream.task = sh.preloadTasks
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = gw
	if traced {
		h = &tracedHandler{h: gw, tr: &s.tracing}
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.serving = make(chan error, 1)
	go func() { s.serving <- s.srv.Serve(ln) }()
	s.tr = newTransport()
	s.cl = client.New("http://"+ln.Addr().String(), serveToken).
		WithHTTPClient(&http.Client{Transport: s.tr, Timeout: 60 * time.Second}).
		WithRetry(client.RetryPolicy{})
	return s, nil
}

func (s *server) close() error {
	err := s.srv.Close()
	if serveErr := <-s.serving; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	s.tr.base.CloseIdleConnections()
	return err
}

// run executes the schedule through the client, cutting each ingest
// batch from the stream in due order.
func (s *server) run(ops []op, tr *tracer) ([]outcome, time.Time) {
	return openLoop(ops, runtime.NumCPU(),
		func(o op) []dist.Response {
			if o.kind != opIngest {
				return nil
			}
			return s.stream.next(ingestBatch)
		},
		func(o op, batch []dist.Response) outcome { return s.send(o, batch, tr) })
}

// openLoop executes a schedule from a fixed set of sender goroutines.
// Each sender takes the next request in due order, calling prepare under
// the schedule lock, waits until the request is due and sends it; the
// outcome is timed from the due time, so a stall also counts against
// every request due behind it. It returns the outcomes and the schedule's
// start.
func openLoop(ops []op, senders int, prepare func(op) []dist.Response,
	send func(op, []dist.Response) outcome) ([]outcome, time.Time) {
	outs := make([]outcome, len(ops))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(ops) {
					mu.Unlock()
					return
				}
				i := next
				next++
				now := time.Since(start)
				backlog := 0
				for j := i; j < len(ops) && ops[j].due <= now; j++ {
					backlog++
				}
				batch := prepare(ops[i])
				mu.Unlock()
				if wait := ops[i].due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				outs[i] = send(ops[i], batch)
				outs[i].due = start.Add(ops[i].due)
				outs[i].backlog = backlog
			}
		}()
	}
	wg.Wait()
	return outs, start
}

type reqIDKey struct{}

// send issues one request through the client package.
func (s *server) send(o op, batch []dist.Response, tr *tracer) outcome {
	root := tr.begin("client."+o.kind.String(), 0, 0)
	ctx := context.Background()
	if root != nil {
		ctx = context.WithValue(ctx, reqIDKey{}, root.id())
	}
	out := outcome{sent: time.Now()}
	switch o.kind {
	case opIngest:
		recs := make([]client.Response, len(batch))
		for i, r := range batch {
			recs[i] = client.Response{Worker: r.Worker, Task: r.Task, Answer: int(r.Answer)}
		}
		var res client.IngestResult
		res, out.err = s.cl.IngestBatch(ctx, recs)
		if out.err == nil && (res.Ingested != len(batch) || res.Rejected != 0) {
			out.err = fmt.Errorf("ingested %d rejected %d of %d", res.Ingested, res.Rejected, len(batch))
		}
		if out.err == nil {
			s.mu.Lock()
			s.acked = append(s.acked, batch...)
			s.mu.Unlock()
		}
	case opQuery:
		_, out.err = s.cl.WorkerInfo(ctx, o.worker)
	case opReview:
		out.decisions, out.err = s.cl.Review(ctx)
		for _, d := range out.decisions {
			if d.Action == "fire" && out.err == nil {
				out.err = fmt.Errorf("review fired worker %d", d.Worker)
			}
		}
	}
	out.done = time.Now()
	root.end()
	return out
}

// runServeMixed drives the gateway with the open-loop schedule, then
// checks every worker's served interval against a reference fed the
// acknowledged responses.
func runServeMixed(o options, tr *tracer) (*report, error) {
	sh := o.serveShape()
	rep := newReport()
	var s *server
	var setups samples
	warm := plan(sh, sh.warmup, 1, nil, o.seed)
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		srv, err := startServer(sh, o.seed, tr != nil)
		if err != nil {
			return nil, err
		}
		outs, _ := srv.run(warm, nil)
		for j, out := range outs {
			if out.err != nil {
				return nil, errors.Join(fmt.Errorf("warm-up %s: %w", warm[j].kind, out.err), srv.close())
			}
		}
		setups.add(time.Since(t0).Seconds())
		if i < o.setups-1 {
			if err := srv.close(); err != nil {
				return nil, err
			}
			continue
		}
		s = srv
	}
	rep.set("setup_s", setups.p50())
	rep.markHeap()
	shedBefore := s.shed()
	s.tracing.Store(tr)
	ops := plan(sh, o.window, sh.fixedShare, sh.rungs, o.seed+1)
	mem := startMem()
	outs, start := s.run(ops, tr)
	var end time.Time
	for _, out := range outs {
		if out.done.After(end) {
			end = out.done
		}
	}
	mem.finish(rep, len(outs))
	if err := rep.markRSS(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	rep.attempted = len(outs)
	phases := len(sh.rungs) + 1
	lat := make([][3]samples, phases)
	var late samples
	backlog, responses := 0, 0
	for i, out := range outs {
		if out.err != nil {
			rep.fail("%s due at %v: %v", ops[i].kind, ops[i].due, out.err)
			continue
		}
		lat[ops[i].phase][ops[i].kind].addDur(out.done.Sub(out.due))
		if ops[i].kind == opIngest {
			responses += ingestBatch
		}
		if ops[i].phase == 0 {
			late.addDur(out.sent.Sub(out.due))
			backlog = max(backlog, out.backlog)
			rep.values["pool.decisions"] += float64(len(out.decisions))
		}
	}
	p50, tail := rep.latency("ingest", lat[0][opIngest], 95)
	rep.set("op_p50_ms", p50)
	rep.set("op_tail_ms", tail)
	rep.latency("query", lat[0][opQuery], 90)
	rep.detail("review_p50_ms", lat[0][opReview].p50(), "ms", fmt.Sprintf("n=%d", len(lat[0][opReview])))
	rep.set("responses_per_s", float64(responses)/end.Sub(start).Seconds())
	lateTail, _ := late.tail(99)
	rep.set("gen.late_ms", lateTail)
	rep.set("gen.backlog", float64(backlog))
	rep.detail("gen.late_ms", lateTail, "ms", fmt.Sprintf("n=%d p99", len(late)))

	// sustained_rps: the highest ladder rate whose ingest tail stays
	// within the limit and whose last request went out on time, with every
	// lower rung passing too. The fixed rate is the floor.
	sustained := sh.ingestHz * ingestBatch
	lastLate := make([]time.Duration, phases)
	for i, out := range outs {
		if ops[i].kind == opIngest {
			lastLate[ops[i].phase] = out.sent.Sub(out.due)
		}
	}
	limit := float64(sh.tailLimit) / 1e6
	for r := 1; r < phases; r++ {
		t, _ := lat[r][opIngest].tail(95)
		ok := t <= limit && lastLate[r] <= sh.tailLimit
		rep.detail(fmt.Sprintf("ladder_%g_per_s", sh.rungs[r-1]), t, "ms",
			fmt.Sprintf("p95 n=%d last_late_ms=%.3f pass=%t", len(lat[r][opIngest]), float64(lastLate[r])/1e6, ok))
		if !ok {
			break
		}
		sustained = sh.rungs[r-1] * ingestBatch
	}
	rep.detail("sustained_rps", sustained, "responses/s", fmt.Sprintf("limit_ms=%g", limit))

	if tr != nil {
		s.layerMetrics(rep, tr, start.Add(time.Duration(float64(o.window)*sh.fixedShare)))
		shed := s.shed()
		rep.set("gate.shed_ratio", float64(shed-shedBefore)/float64(len(outs)))
	}
	checkErr := s.check(rep, o)
	return rep, errors.Join(checkErr, s.close())
}

// shed counts the gateway's 429 answers so far, from gate_requests_total.
func (s *server) shed() uint64 {
	v, _ := s.reg.CounterValue("gate_requests_total",
		obs.Label{Key: "tenant", Value: serveTenant}, obs.Label{Key: "code", Value: "429"})
	return v
}

// check compares every worker's served record with a reference fed the
// acknowledged responses: the same response count and, for workers past
// the policy's bar, a Float64bits-identical interval.
func (s *server) check(rep *report, o options) error {
	rep.attempted++
	got, err := s.cl.Workers(context.Background())
	if err != nil {
		rep.fail("GET /v1/workers: %v", err)
		return nil
	}
	ref, err := core.NewIncremental(s.sh.workers)
	if err != nil {
		return err
	}
	counts := make([]int, s.sh.workers)
	for _, r := range s.acked {
		if err := ref.Add(r.Worker, r.Task, r.Answer); err != nil {
			return err
		}
		counts[r.Worker]++
	}
	want, err := ref.EvaluateAll(core.EvalOptions{Confidence: servePolicy.Confidence})
	if err != nil {
		return err
	}
	o.tamper(want)
	if err := sameWorkers(got, want, counts); err != nil {
		rep.fail("served workers: %v", err)
	}
	return nil
}

// sameWorkers checks served worker records against reference estimates
// and response counts.
func sameWorkers(got []client.Worker, want []core.WorkerEstimate, counts []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d workers served, want %d", len(got), len(want))
	}
	for w, g := range got {
		if g.Worker != w || g.Responses != counts[w] || g.State == "fired" {
			return fmt.Errorf("worker %d: served worker %d state %s with %d responses, want %d",
				w, g.Worker, g.State, g.Responses, counts[w])
		}
		hasEstimate := counts[w] >= servePolicy.MinResponses && want[w].Err == nil
		if (g.Estimate != nil) != hasEstimate {
			return fmt.Errorf("worker %d: estimate %v, want one: %t", w, g.Estimate, hasEstimate)
		}
		if g.Estimate == nil {
			continue
		}
		iv := want[w].Interval
		if !sameBits(g.Estimate.Mean, iv.Mean) || !sameBits(g.Estimate.Lo, iv.Lo) || !sameBits(g.Estimate.Hi, iv.Hi) {
			return fmt.Errorf("worker %d: interval %v [%v, %v], want %v [%v, %v]", w,
				g.Estimate.Mean, g.Estimate.Lo, g.Estimate.Hi, iv.Mean, iv.Lo, iv.Hi)
		}
	}
	return nil
}

// layerMetrics derives the gate, client, pool and core metrics from the
// traced spans of the fixed-rate phase.
func (s *server) layerMetrics(rep *report, tr *tracer, fixedEnd time.Time) {
	cut := int64(fixedEnd.Sub(tr.epoch))
	var spans []span
	for _, sp := range tr.snapshot() {
		if sp.Start < cut {
			spans = append(spans, sp)
		}
	}
	byID := make(map[uint64]span, len(spans))
	kids := map[uint64][]span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	var overhead, wait, add, subsetQ, subsetR samples
	for _, sp := range spans {
		switch sp.Name {
		case "gate.ingest":
			if c, ok := byID[sp.Parent]; ok {
				overhead.addDur(c.dur() - sp.dur())
			}
			inner := time.Duration(0)
			for _, k := range kids[sp.ID] {
				if k.Name == "core.Add" {
					inner += k.dur()
				}
			}
			wait.addDur(sp.dur() - inner)
		case "core.Add":
			add.add(float64(sp.dur()))
		case "core.EvaluateSubset":
			switch byID[sp.Parent].Name {
			case "gate.query":
				subsetQ.addDur(sp.dur())
			case "gate.review":
				subsetR.addDur(sp.dur())
			}
		}
	}
	rep.set("gate.handler_ms.ingest", byName(spans, "gate.ingest").p50())
	rep.set("gate.handler_ms.query", byName(spans, "gate.query").p50())
	rep.set("gate.handler_ms.review", byName(spans, "gate.review").p50())
	rep.set("client.overhead_ms.ingest", overhead.p50())
	waitTail, _ := wait.tail(95)
	rep.set("pool.ingest_wait_ms", waitTail)
	rep.set("core.add_ns", add.mean())
	rep.set("core.adds", float64(len(add)))
	rep.set("core.subset_ms.query", subsetQ.p50())
	rep.set("core.subset_ms.review", subsetR.p50())
	rep.set("core.majority_ms", byName(spans, "core.MajorityDisagreement").p50())
}

// transport is the client's HTTP transport: at most nproc connections,
// and in a traced run the client span's ID travels as X-Request-Id so the
// gateway's handler span can name its parent.
type transport struct {
	base *http.Transport
}

func newTransport() *transport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = runtime.NumCPU()
	base.MaxIdleConnsPerHost = runtime.NumCPU()
	return &transport{base: base}
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-Id", strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// tracedHandler opens a span around each request the gateway serves,
// parented by the client span named in X-Request-Id.
type tracedHandler struct {
	h  http.Handler
	tr *atomic.Pointer[tracer]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := "other"
	switch {
	case r.URL.Path == "/v1/responses:batch":
		route = "ingest"
	case strings.HasPrefix(r.URL.Path, "/v1/workers/"):
		route = "query"
	case r.URL.Path == "/v1/pool/review":
		route = "review"
	}
	id, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
	sp := t.tr.Load().bind("gate."+route, id, id)
	t.h.ServeHTTP(w, r)
	sp.end()
}

// tracedEvaluator times the streaming evaluator's calls from inside the
// pool manager that owns it.
type tracedEvaluator struct {
	core.StreamingEvaluator
	tr *atomic.Pointer[tracer]
}

func (e *tracedEvaluator) Add(w, t int, r crowd.Response) error {
	sp := e.tr.Load().beginBound("core.Add")
	err := e.StreamingEvaluator.Add(w, t, r)
	sp.end()
	return err
}

func (e *tracedEvaluator) EvaluateSubset(workers []int, opts core.EvalOptions) ([]core.WorkerEstimate, error) {
	sp := e.tr.Load().beginBound("core.EvaluateSubset")
	out, err := e.StreamingEvaluator.EvaluateSubset(workers, opts)
	sp.end()
	return out, err
}

func (e *tracedEvaluator) MajorityDisagreement() []float64 {
	sp := e.tr.Load().beginBound("core.MajorityDisagreement")
	out := e.StreamingEvaluator.MajorityDisagreement()
	sp.end()
	return out
}

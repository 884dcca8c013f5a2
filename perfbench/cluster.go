package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/dist"
	"crowdassess/internal/obs"
	"crowdassess/internal/store"
)

// evalOpts is the evaluation every workload and every reference runs.
var evalOpts = core.EvalOptions{Confidence: 0.9}

// ingestBatch is the number of responses in one ingest batch, on every
// workload that ingests.
const ingestBatch = 256

// reference evaluates a response stream the simplest way the repository
// offers: one single-shard core.Incremental fed every response.
func reference(workers int, subs []dist.Response) ([]core.WorkerEstimate, error) {
	inc, err := core.NewIncremental(workers)
	if err != nil {
		return nil, err
	}
	for _, s := range subs {
		if err := inc.Add(s.Worker, s.Task, s.Answer); err != nil {
			return nil, err
		}
	}
	return inc.EvaluateAll(evalOpts)
}

// sameEstimates reports the first way got differs from want: a different
// worker, triple count or failure, or an interval whose bits differ.
func sameEstimates(got, want []core.WorkerEstimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Worker != w.Worker || g.Triples != w.Triples || (g.Err == nil) != (w.Err == nil) {
			return fmt.Errorf("estimate %d: worker %d triples %d err %v, want worker %d triples %d err %v",
				i, g.Worker, g.Triples, g.Err, w.Worker, w.Triples, w.Err)
		}
		if !sameBits(g.Interval.Mean, w.Interval.Mean) || !sameBits(g.Interval.Lo, w.Interval.Lo) ||
			!sameBits(g.Interval.Hi, w.Interval.Hi) {
			return fmt.Errorf("worker %d: interval %v [%v, %v], want %v [%v, %v]", w.Worker,
				g.Interval.Mean, g.Interval.Lo, g.Interval.Hi, w.Interval.Mean, w.Interval.Lo, w.Interval.Hi)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// cluster is a set of dist worker nodes on loopback TCP behind one
// coordinator, all in this process.
type cluster struct {
	nodes  []*dist.Worker
	coord  *dist.Coordinator
	serves sync.WaitGroup
}

// startCluster starts one node per store (nil stores for in-memory
// nodes), each with the given shard count, and connects a coordinator.
func startCluster(workers, shards int, stores []*store.Store) (*cluster, error) {
	c := &cluster{}
	conns := make([]*dist.Conn, 0, len(stores))
	for _, st := range stores {
		node, err := dist.NewWorker(dist.WorkerOptions{Workers: workers, Shards: shards, Store: st})
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		c.nodes = append(c.nodes, node)
		c.serves.Add(1)
		go func() {
			defer c.serves.Done()
			// Serve returns nil after Close; any other end is a failure the
			// coordinator's next call reports.
			_ = node.Serve(ln)
		}()
		conn, err := dist.DialTCP(ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		conns = append(conns, conn)
	}
	coord, err := dist.NewCoordinator(workers, conns)
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	c.coord = coord
	return c, nil
}

// close stops the coordinator and every node and waits for their
// serving goroutines.
func (c *cluster) close() error {
	var errs []error
	if c.coord != nil {
		errs = append(errs, c.coord.Close())
	}
	for _, n := range c.nodes {
		errs = append(errs, n.Close())
	}
	c.serves.Wait()
	return errors.Join(errs...)
}

// ingestAll sends the stream in batches from at most nproc goroutines.
func (c *cluster) ingestAll(subs []dist.Response) error {
	senders := runtime.NumCPU()
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for lo := g * ingestBatch; lo < len(subs) && errs[g] == nil; lo += senders * ingestBatch {
				errs[g] = c.coord.Ingest(subs[lo:min(lo+ingestBatch, len(subs))])
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// clusterShape sizes cluster-evaluate: the ROADMAP's reference shape of
// 64 workers × 4000 tasks at density 0.8 on 2 nodes of 2 shards.
type clusterShape struct {
	workers, tasks int
	density        float64
	nodes, shards  int
}

func (o options) clusterShape() clusterShape {
	if o.tiny {
		return clusterShape{workers: 9, tasks: 200, density: 0.8, nodes: 2, shards: 2}
	}
	return clusterShape{workers: 64, tasks: 4000, density: 0.8, nodes: 2, shards: 2}
}

// runClusterEvaluate is a closed loop with one caller: Coordinator.Merge
// pulls and folds every node's statistics, then EvaluateAll solves every
// worker. Every round's intervals must match the reference bit for bit.
func runClusterEvaluate(o options, tr *tracer) (*report, error) {
	sh := o.clusterShape()
	subs, err := binaryStream(o.seed, sh.workers, sh.tasks, sh.density)
	if err != nil {
		return nil, err
	}
	want, err := reference(sh.workers, subs)
	if err != nil {
		return nil, err
	}
	o.tamper(want)
	rep := newReport()
	var cl *cluster
	var setups samples
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		c, err := startCluster(sh.workers, sh.shards, make([]*store.Store, sh.nodes))
		if err != nil {
			return nil, err
		}
		if err := c.ingestAll(subs); err != nil {
			return nil, errors.Join(err, c.close())
		}
		setups.add(time.Since(t0).Seconds())
		if i < o.setups-1 {
			if err := c.close(); err != nil {
				return nil, err
			}
			continue
		}
		cl = c
	}
	rep.set("setup_s", setups.p50())
	rep.markHeap()
	reg := obs.NewRegistry(nil)
	if tr != nil {
		cl.coord.Instrument(reg)
	}
	pullMsg := obs.Label{Key: "msg", Value: "pull-stats"}
	pullHist := reg.Histogram("dist_rpc_seconds", "", nil, pullMsg)
	pullBytes := func() uint64 {
		v, _ := reg.CounterValue("dist_rpc_bytes_total", pullMsg, obs.Label{Key: "dir", Value: "recv"})
		return v
	}

	var lat, merge, pull, fold, solve, bytesPerMerge samples
	var last []core.WorkerEstimate
	var lastAcc *core.StatsAccumulator
	mem := startMem()
	start := time.Now()
	for time.Since(start) < o.window {
		rep.attempted++
		root := tr.begin("evaluate", 0, 0)
		sumBefore, countBefore, bytesBefore := pullHist.Sum(), pullHist.Count(), pullBytes()
		t0 := time.Now()
		ms := root.child("dist.Merge")
		acc, err := cl.coord.Merge()
		ms.end()
		t1 := time.Now()
		ss := root.child("core.EvaluateAll")
		var got []core.WorkerEstimate
		if err == nil {
			got, err = acc.EvaluateAll(evalOpts)
		}
		ss.end()
		t2 := time.Now()
		root.end()
		if err == nil {
			err = sameEstimates(got, want)
		}
		if err != nil {
			rep.fail("evaluate round %d: %v", rep.attempted, err)
			continue
		}
		lat.addDur(t2.Sub(t0))
		merge.addDur(t1.Sub(t0))
		solve.addDur(t2.Sub(t1))
		if n := pullHist.Count() - countBefore; n > 0 {
			p := (pullHist.Sum() - sumBefore) / float64(n) * 1e3
			pull.add(p)
			fold.add(float64(t1.Sub(t0))/1e6 - p)
			bytesPerMerge.add(float64(pullBytes() - bytesBefore))
		}
		last, lastAcc = got, acc
	}
	elapsed := time.Since(start)
	mem.finish(rep, len(lat))
	if err := rep.markRSS(); err != nil {
		return nil, errors.Join(err, cl.close())
	}

	p50, tail := rep.latency("evaluate", lat, 90)
	rep.set("op_p50_ms", p50)
	rep.set("op_tail_ms", tail)
	rep.set("responses_per_s", float64(len(lat)*len(subs))/elapsed.Seconds())
	rep.detail("evaluations_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	rep.detail("responses", float64(len(subs)), "count")

	if tr != nil && lastAcc != nil {
		rep.set("dist.merge_ms", merge.p50())
		rep.set("dist.pull_ms", pull.p50())
		rep.set("dist.fold_ms", fold.p50())
		rep.set("dist.pull_bytes", bytesPerMerge.p50())
		rep.set("core.solve_ms", solve.p50())
		rep.detail("merge_plus_solve_share", (merge.p50()+solve.p50())/p50, "ratio")
		if err := solveBreakdown(rep, lastAcc, last, want); err != nil {
			return nil, errors.Join(err, cl.close())
		}
	}
	return rep, cl.close()
}

// solveBreakdown measures the solve on its own after the traced window:
// the same EvaluateAll at GOMAXPROCS=1, and each worker's solve alone.
func solveBreakdown(rep *report, acc *core.StatsAccumulator, last, want []core.WorkerEstimate) error {
	var serial, perWorker samples
	procs := runtime.GOMAXPROCS(1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		got, err := acc.EvaluateAll(evalOpts)
		serial.addDur(time.Since(t0))
		if err == nil {
			err = sameEstimates(got, want)
		}
		if err != nil {
			runtime.GOMAXPROCS(procs)
			return fmt.Errorf("serial solve: %w", err)
		}
	}
	runtime.GOMAXPROCS(procs)
	for w := 0; w < acc.Workers(); w++ {
		t0 := time.Now()
		got, err := acc.EvaluateSubset([]int{w}, evalOpts)
		perWorker.addDur(time.Since(t0))
		if err == nil {
			err = sameEstimates(got, want[w:w+1])
		}
		if err != nil {
			return fmt.Errorf("worker %d solve: %w", w, err)
		}
	}
	triples, failed := 0, 0
	for _, e := range last {
		triples += e.Triples
		if e.Err != nil {
			failed++
		}
	}
	rep.set("core.solve_ms.serial", serial.p50())
	rep.set("core.worker_solve_ms.p50", perWorker.p50())
	rep.set("core.worker_solve_ms.max", perWorker.max())
	rep.set("core.triples_per_worker", float64(triples)/float64(len(last)))
	rep.set("core.failed_estimates", float64(failed))
	return nil
}

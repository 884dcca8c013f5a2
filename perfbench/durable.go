package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/dist"
	"crowdassess/internal/obs"
	"crowdassess/internal/store"
)

// durableShape sizes durable-ingest: 64 workers answer every task, so a
// batch of 256 is 4 whole tasks, and each node cuts a compact snapshot
// every checkpointEvery batches.
type durableShape struct {
	workers, nodes, shards int
	warmupBatches          int
	checkpointEvery        int
}

func (o options) durableShape() durableShape {
	if o.tiny {
		return durableShape{workers: 16, nodes: 2, shards: 2, warmupBatches: 8, checkpointEvery: 16}
	}
	return durableShape{workers: 64, nodes: 2, shards: 2, warmupBatches: 2048, checkpointEvery: 2048}
}

// batchSource makes ingest batch i as a pure function of the seed and i,
// so concurrent submitters need no shared stream and the check can
// rebuild any acknowledged batch. Every worker answers every task.
type batchSource struct{ crowd taskSource }

func newBatchSource(seed int64, workers int) batchSource {
	return batchSource{newTaskSource(seed, workers, 1, []float64{0.1, 0.2, 0.3})}
}

func (b batchSource) batch(i int) []dist.Response {
	tasks := ingestBatch / b.crowd.workers
	out := make([]dist.Response, 0, ingestBatch)
	for t := i * tasks; t < (i+1)*tasks; t++ {
		out = b.crowd.task(t, out)
	}
	return out
}

// openStores opens one store per directory under FsyncInterval, crowdd's
// group commit: a background flusher syncs the journal every 50 ms. Under
// FsyncAlways, where every acknowledgement waits for its own fsync, the
// ingest tail on a shared virtual disk moved by 2–3× between runs minutes
// apart, far beyond any bound a benchmark can hold.
func openStores(fsys store.FS, dirs []string) ([]*store.Store, error) {
	var out []*store.Store
	for _, dir := range dirs {
		st, err := store.Open(fsys, dir, store.Options{Fsync: store.FsyncInterval})
		if err != nil {
			for _, s := range out {
				s.Close()
			}
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func closeStores(stores []*store.Store) error {
	var errs []error
	for _, s := range stores {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// durableRun is one set-up of durable-ingest: a cluster whose nodes each
// journal to their own store.
type durableRun struct {
	fsys   store.FS
	dirs   []string
	stores []*store.Store
	cl     *cluster
}

func (d *durableRun) close() error {
	return errors.Join(d.cl.close(), closeStores(d.stores))
}

// runDurableIngest is a closed loop of one submitter sending batches
// through the coordinator to nodes that journal every batch with
// before acknowledging it. A compact snapshot is cut on every
// node after every checkpointEvery batches. After the window the nodes are
// closed and recovered from their stores; the recovered count must equal
// the acknowledged count and the recovered intervals must match a
// reference fed the acknowledged batches.
func runDurableIngest(o options, tr *tracer) (*report, error) {
	sh := o.durableShape()
	src := newBatchSource(o.seed, sh.workers)
	rep := newReport()
	var fsys *timedFS
	if tr != nil {
		fsys = &timedFS{FS: store.OSFS{}}
	}
	var run *durableRun
	var setups samples
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		d, err := startDurable(o, sh, src, i, fsys)
		if err != nil {
			return nil, err
		}
		setups.add(time.Since(t0).Seconds())
		if i < o.setups-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			continue
		}
		run = d
	}
	rep.set("setup_s", setups.p50())
	rep.markHeap()
	reg := obs.NewRegistry(nil)
	if tr != nil {
		run.cl.coord.Instrument(reg)
		fsys.start(tr)
	}

	// One submitter sends batches back to back; a second goroutine cuts a
	// snapshot on every node each time the submitter crosses a multiple of
	// checkpointEvery, so the cut's journal lock overlaps ingest as it
	// would in service.
	var all, snapAll samples
	var batches []int
	cuts := make(chan int, 1)
	cutErrs := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range cuts {
			t0 := time.Now()
			sp := tr.begin("dist.CheckpointCompact", 0, 0)
			if err := checkpointAll(run.cl); err != nil {
				cutErrs++
				fmt.Fprintf(os.Stderr, "perfbench: checkpoint after batch %d: %v\n", i, err)
			}
			sp.end()
			snapAll.addDur(time.Since(t0))
		}
	}()
	mem := startMem()
	start := time.Now()
	for i := sh.warmupBatches; time.Since(start) < o.window; i++ {
		batch := src.batch(i)
		root := tr.begin("ingest", 0, 0)
		sp := root.child("dist.Ingest")
		t0 := time.Now()
		err := run.cl.coord.Ingest(batch)
		d := time.Since(t0)
		sp.end()
		root.end()
		if err != nil {
			rep.fail("ingest batch %d: %v", i, err)
			continue
		}
		all.addDur(d)
		batches = append(batches, i)
		if (i+1)%sh.checkpointEvery == 0 {
			select {
			case cuts <- i:
			default: // the previous cut is still running
			}
		}
	}
	elapsed := time.Since(start)
	close(cuts)
	wg.Wait()
	rep.failed += cutErrs
	rep.attempted = len(all) + rep.failed
	mem.finish(rep, len(all))
	p50, tail := rep.latency("ingest", all, 90)
	rep.set("op_p50_ms", p50)
	rep.set("op_tail_ms", tail)
	rps := float64(len(all)*ingestBatch) / elapsed.Seconds()
	rep.set("responses_per_s", rps)
	rep.detail("ingest_rps", rps, "responses/s")
	rep.detail("snapshot_cuts", float64(len(snapAll)), "count")
	if err := rep.markRSS(); err != nil {
		return nil, errors.Join(err, run.close())
	}
	if tr != nil {
		rpcMean := func(msg string) float64 {
			h := reg.Histogram("dist_rpc_seconds", "", nil, obs.Label{Key: "msg", Value: msg})
			if h.Count() == 0 {
				return 0
			}
			return h.Sum() / float64(h.Count()) * 1e3
		}
		sent, _ := reg.CounterValue("dist_rpc_bytes_total",
			obs.Label{Key: "msg", Value: "ingest"}, obs.Label{Key: "dir", Value: "sent"})
		responses := float64(len(all) * ingestBatch)
		rep.set("dist.ingest_rpc_ms", rpcMean("ingest"))
		rep.set("dist.bytes_per_response", float64(sent)/responses)
		fsys.report(rep, len(all), len(snapAll), responses)
		rep.set("store.snapshot_ms", snapAll.p50())
	}

	// Output check: close everything, recover from the stores, and compare
	// with what was acknowledged. Batches before the window were
	// acknowledged during set-up.
	for i := 0; i < sh.warmupBatches; i++ {
		batches = append(batches, i)
	}
	if err := run.close(); err != nil {
		return nil, err
	}
	if err := checkRecovery(rep, o, run.fsys, run.dirs, sh, src, batches, tr != nil); err != nil {
		return nil, err
	}
	return rep, nil
}

// startDurable opens fresh stores for set-up number k, starts the cluster
// over them and sends the warm-up batches, cutting one snapshot.
func startDurable(o options, sh durableShape, src batchSource, k int, fsys *timedFS) (*durableRun, error) {
	d := &durableRun{fsys: store.OSFS{}}
	if fsys != nil {
		d.fsys = fsys
	}
	for n := 0; n < sh.nodes; n++ {
		d.dirs = append(d.dirs, filepath.Join(o.out, fmt.Sprintf("setup%d-node%d", k, n)))
	}
	var err error
	if d.stores, err = openStores(d.fsys, d.dirs); err != nil {
		return nil, err
	}
	if d.cl, err = startCluster(sh.workers, sh.shards, d.stores); err != nil {
		return nil, errors.Join(err, closeStores(d.stores))
	}
	for i := 0; i < sh.warmupBatches; i++ {
		if err := d.cl.coord.Ingest(src.batch(i)); err != nil {
			return nil, errors.Join(err, d.close())
		}
	}
	if err := checkpointAll(d.cl); err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

// checkpointAll cuts a compact snapshot on every node.
func checkpointAll(cl *cluster) error {
	for _, n := range cl.nodes {
		if err := n.CheckpointCompact(); err != nil {
			return err
		}
	}
	return nil
}

// checkRecovery reopens every node's store, recovers a fresh node from
// it, and checks the recovered responses and intervals against the
// acknowledged batches. Recovery time is recover_s.
func checkRecovery(rep *report, o options, fsys store.FS, dirs []string, sh durableShape, src batchSource,
	batches []int, traced bool) error {
	stores, err := openStores(fsys, dirs)
	if err != nil {
		return err
	}
	defer closeStores(stores)
	replayed := 0
	for _, st := range stores {
		snap, ok, err := st.Snapshots.Latest()
		if err != nil {
			return err
		}
		last := int(st.Log.LastSeq())
		if ok {
			last -= int(snap.Seq)
		}
		replayed += last
	}
	acc, err := core.NewStatsAccumulator(sh.workers)
	if err != nil {
		return err
	}
	recovered := 0
	var dur time.Duration
	for _, st := range stores {
		node, err := dist.NewWorker(dist.WorkerOptions{Workers: sh.workers, Shards: sh.shards, Store: st})
		if err != nil {
			return err
		}
		t0 := time.Now()
		n, err := node.RecoverFromStore()
		dur += time.Since(t0)
		if err == nil {
			err = acc.Merge(node.Evaluator().ExportStats())
		}
		if err := errors.Join(err, node.Close()); err != nil {
			return err
		}
		recovered += n
	}
	rep.detail("recover_s", dur.Seconds(), "s")
	if traced {
		rep.set("store.recover_ms", float64(dur)/1e6)
		rep.set("store.replayed_records", float64(replayed))
	}

	rep.attempted++
	if want := len(batches) * ingestBatch; recovered != want {
		rep.fail("recovered %d responses, acknowledged %d", recovered, want)
		return nil
	}
	got, err := acc.EvaluateAll(evalOpts)
	if err != nil {
		return err
	}
	ref, err := core.NewIncremental(sh.workers)
	if err != nil {
		return err
	}
	for _, i := range batches {
		for _, r := range src.batch(i) {
			if err := ref.Add(r.Worker, r.Task, r.Answer); err != nil {
				return err
			}
		}
	}
	want, err := ref.EvaluateAll(evalOpts)
	if err != nil {
		return err
	}
	o.tamper(want)
	if err := sameEstimates(got, want); err != nil {
		rep.fail("recovered intervals: %v", err)
	}
	return nil
}

// timedFS wraps the real filesystem and times every write and fsync the
// store makes, telling journal segments from snapshot files by name.
// start clears the figures and sets the tracer, so set-up stays out.
type timedFS struct {
	store.FS
	tr atomic.Pointer[tracer]

	mu                  sync.Mutex
	walWrite, walSync   samples
	syncs               int
	walBytes, snapBytes int64
}

// start begins recording, with spans going to tr.
func (f *timedFS) start(tr *tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.walWrite, f.walSync, f.syncs, f.walBytes, f.snapBytes = nil, nil, 0, 0, 0
	f.tr.Store(tr)
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, wal: strings.HasPrefix(filepath.Base(name), "wal-")}, nil
}

func (f *timedFS) SyncFile(name string) error {
	f.mu.Lock()
	f.syncs++
	f.mu.Unlock()
	return f.FS.SyncFile(name)
}

func (f *timedFS) SyncDir(name string) error {
	f.mu.Lock()
	f.syncs++
	f.mu.Unlock()
	return f.FS.SyncDir(name)
}

// report sets the store's per-layer metrics for a window of the given
// batches, snapshot cuts and responses.
func (f *timedFS) report(rep *report, batches, cuts int, responses float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep.set("store.fsync_ms", f.walSync.p50())
	rep.set("store.write_ms", f.walWrite.p50())
	if batches > 0 {
		rep.set("store.fsyncs_per_batch", float64(f.syncs)/float64(batches))
		rep.set("store.bytes_per_response", float64(f.walBytes)/responses)
	}
	if cuts > 0 {
		// Each cut writes one snapshot file per node.
		rep.set("store.snapshot_bytes", float64(f.snapBytes)/float64(cuts))
	}
}

type timedFile struct {
	store.File
	fs  *timedFS
	wal bool
}

func (t *timedFile) Write(p []byte) (int, error) {
	sp := t.fs.tr.Load().begin("store.Write", 0, 0)
	t0 := time.Now()
	n, err := t.File.Write(p)
	d := time.Since(t0)
	sp.end()
	t.fs.mu.Lock()
	if t.wal {
		t.fs.walWrite.addDur(d)
		t.fs.walBytes += int64(n)
	} else {
		t.fs.snapBytes += int64(n)
	}
	t.fs.mu.Unlock()
	return n, err
}

func (t *timedFile) Sync() error {
	sp := t.fs.tr.Load().begin("store.Sync", 0, 0)
	t0 := time.Now()
	err := t.File.Sync()
	d := time.Since(t0)
	sp.end()
	t.fs.mu.Lock()
	t.fs.syncs++
	if t.wal {
		t.fs.walSync.addDur(d)
	}
	t.fs.mu.Unlock()
	return err
}

package main

import (
	"bytes"
	"fmt"
	"time"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// assessShape sizes batch-assess: the crowdeval path over a binary JSON
// dataset, then the k-ary panel on a k=3 dataset.
type assessShape struct {
	workers, tasks         int
	density                float64
	karyWorkers, karyTasks int
	maxTriples             int
}

func (o options) assessShape() assessShape {
	if o.tiny {
		return assessShape{workers: 9, tasks: 200, density: 0.8, karyWorkers: 6, karyTasks: 200, maxTriples: 4}
	}
	return assessShape{workers: 64, tasks: 4000, density: 0.8, karyWorkers: 12, karyTasks: 1000, maxTriples: 8}
}

// assessInput is what one pass reads, and what it must produce.
type assessInput struct {
	json      []byte
	kary      *crowd.Dataset
	karyOpts  core.KAryPanelOptions
	wantA2    []core.WorkerEstimate
	wantKAry  []core.KAryWorkerEstimate
	responses int
}

// newAssessInput generates both datasets from the seed and computes the
// reference outputs serially.
func newAssessInput(sh assessShape, seed int64) (*assessInput, error) {
	src := randx.NewSource(seed)
	rates := mixOf(src, sh.workers, sim.DefaultErrorRateChoices)
	ds, _, err := sim.Binary{Tasks: sh.tasks, Workers: sh.workers, Density: sh.density, ErrorRates: rates}.Generate(src)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		return nil, err
	}
	confs := mixOf(src, sh.karyWorkers, sim.PaperMatrices(3))
	kds, _, err := sim.KAry{Tasks: sh.karyTasks, Workers: sh.karyWorkers, Confusions: confs}.Generate(src)
	if err != nil {
		return nil, err
	}
	in := &assessInput{json: buf.Bytes(), kary: kds,
		karyOpts: core.KAryPanelOptions{Confidence: evalOpts.Confidence, MaxTriples: sh.maxTriples}}
	for w := 0; w < ds.Workers(); w++ {
		in.responses += ds.ResponseCount(w)
	}
	if in.wantA2, err = core.EvaluateWorkers(ds, evalOpts); err != nil {
		return nil, err
	}
	if in.wantKAry, err = core.EvaluateWorkersKAry(kds, in.karyOpts); err != nil {
		return nil, err
	}
	return in, nil
}

// passTimes is how long each stage of one pass took.
type passTimes struct {
	parse, a2, kary time.Duration
	triples         int
}

// pass parses the JSON dataset, runs Algorithm A2 on it in parallel and
// the k-ary panel on the k=3 dataset, and checks both outputs.
func (in *assessInput) pass(tr *tracer) (passTimes, error) {
	var pt passTimes
	root := tr.begin("assess", 0, 0)
	defer root.end()
	sp := root.child("crowd.ReadDataset")
	t0 := time.Now()
	ds, err := crowd.ReadDataset(bytes.NewReader(in.json))
	pt.parse = time.Since(t0)
	sp.end()
	if err != nil {
		return pt, err
	}
	sp = root.child("core.EvaluateWorkers")
	t0 = time.Now()
	opts := evalOpts
	opts.Parallel = true
	a2, err := core.EvaluateWorkers(ds, opts)
	pt.a2 = time.Since(t0)
	sp.end()
	if err != nil {
		return pt, err
	}
	sp = root.child("core.EvaluateWorkersKAry")
	t0 = time.Now()
	kary, err := core.EvaluateWorkersKAry(in.kary, in.karyOpts)
	pt.kary = time.Since(t0)
	sp.end()
	if err != nil {
		return pt, err
	}
	if err := sameEstimates(a2, in.wantA2); err != nil {
		return pt, fmt.Errorf("A2: %w", err)
	}
	if err := sameKAry(kary, in.wantKAry); err != nil {
		return pt, fmt.Errorf("k-ary: %w", err)
	}
	for _, e := range kary {
		pt.triples += e.Triples
	}
	return pt, nil
}

// sameKAry reports the first way got differs from want, comparing every
// matrix element's bits.
func sameKAry(got, want []core.KAryWorkerEstimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Worker != w.Worker || g.Triples != w.Triples || (g.Err == nil) != (w.Err == nil) {
			return fmt.Errorf("estimate %d: worker %d triples %d err %v, want worker %d triples %d err %v",
				i, g.Worker, g.Triples, g.Err, w.Worker, w.Triples, w.Err)
		}
		if w.Err != nil {
			continue
		}
		if !sameMatrix(g.Mean, w.Mean) || !sameMatrix(g.Dev, w.Dev) {
			return fmt.Errorf("worker %d: estimate differs", w.Worker)
		}
	}
	return nil
}

func sameMatrix(a, b *mat.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if !sameBits(a.At(i, j), b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// runBatchAssess is a closed loop of whole assessment passes. Set-up is
// one warm-up pass.
func runBatchAssess(o options, tr *tracer) (*report, error) {
	sh := o.assessShape()
	in, err := newAssessInput(sh, o.seed)
	if err != nil {
		return nil, err
	}
	o.tamper(in.wantA2)
	rep := newReport()
	var setups samples
	for i := 0; i < o.setups; i++ {
		rep.attempted++
		t0 := time.Now()
		if _, err := in.pass(nil); err != nil {
			rep.fail("warm-up pass: %v", err)
		}
		setups.add(time.Since(t0).Seconds())
	}
	rep.set("setup_s", setups.p50())
	rep.markHeap()

	var lat, parse, a2, kary samples
	triples := 0
	mem := startMem()
	start := time.Now()
	for time.Since(start) < o.window {
		rep.attempted++
		t0 := time.Now()
		pt, err := in.pass(tr)
		if err != nil {
			rep.fail("pass %d: %v", rep.attempted, err)
			continue
		}
		lat.addDur(time.Since(t0))
		parse.addDur(pt.parse)
		a2.addDur(pt.a2)
		kary.addDur(pt.kary)
		triples = pt.triples
	}
	elapsed := time.Since(start)
	mem.finish(rep, len(lat))
	if err := rep.markRSS(); err != nil {
		return nil, err
	}
	p50, tail := rep.latency("assess", lat, 75)
	rep.set("op_p50_ms", p50)
	rep.set("op_tail_ms", tail)
	rep.detail("assess_s", p50/1e3, "s", fmt.Sprintf("n=%d", len(lat)))
	rep.set("responses_per_s", float64(len(lat)*in.responses)/elapsed.Seconds())
	rep.detail("dataset_mb", float64(len(in.json))/1e6, "MB")
	if tr != nil {
		rep.set("crowd.parse_ms", parse.p50())
		rep.set("crowd.parse_mb_per_s", float64(len(in.json))/1e6/(parse.p50()/1e3))
		rep.set("core.batch_a2_ms", a2.p50())
		rep.set("core.kary_ms", kary.p50())
		rep.set("core.kary_triples", float64(triples))
	}
	return rep, nil
}

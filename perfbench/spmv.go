package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// rig is one staged matrix and the System running over it.
type rig struct {
	dir    string
	m      *sparse.CSR
	info   core.StagedMatrixInfo
	budget int64
	sys    *core.System
	reg    *obs.Registry
	tracer *obs.Tracer
}

func (r *rig) close() {
	if r.sys != nil {
		r.sys.Close()
	}
	os.RemoveAll(r.dir)
}

// storageTotals sums the storage counters of every node between two
// snapshots.
func storageTotals(sys *core.System) storage.Stats {
	var t storage.Stats
	for i := 0; i < sys.Nodes(); i++ {
		s := sys.Store(i).Stats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.BlockLoads += s.BlockLoads
		t.BytesReadDisk += s.BytesReadDisk
		t.BytesWrittenDisk += s.BytesWrittenDisk
		t.PrefetchLoads += s.PrefetchLoads
		t.PrefetchHits += s.PrefetchHits
	}
	return t
}

// storageMetrics fills the storage counter metrics from a before/after pair.
func storageMetrics(into map[string]float64, a, b storage.Stats, iters float64) {
	d := func(f func(storage.Stats) int64) float64 { return float64(f(b) - f(a)) }
	hits := d(func(s storage.Stats) int64 { return s.Hits })
	misses := d(func(s storage.Stats) int64 { return s.Misses })
	into["storage.disk_read_mb_per_iter"] = d(func(s storage.Stats) int64 { return s.BytesReadDisk }) / 1e6 / iters
	into["storage.reload_ratio"] = d(func(s storage.Stats) int64 { return s.BlockLoads }) / (gridK * gridK * iters)
	into["storage.prefetch_useful_ratio"] = ratio(d(func(s storage.Stats) int64 { return s.PrefetchHits }),
		d(func(s storage.Stats) int64 { return s.PrefetchLoads }))
	into["storage.cache_hit_ratio"] = ratio(hits, hits+misses)
	into["storage.evictions_per_iter"] = d(func(s storage.Stats) int64 { return s.Evictions }) / iters
	into["storage.disk_write_mb_per_step"] = d(func(s storage.Stats) int64 { return s.BytesWrittenDisk }) / 1e6 / iters
}

// spmvSetup generates and stages the matrix, builds the System with
// doocrun's options and a budget of a quarter of each node's share, and runs
// one warm-up call.
func spmvSetup(e *env, dir string, tracer *obs.Tracer) (*rig, error) {
	sz := e.size
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: sz.spmvDim, Cols: sz.spmvDim, D: sz.spmvD, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	cfg := spmvConfig(e)
	if err := core.StageMatrix(dir, m, cfg); err != nil {
		return nil, err
	}
	info, err := core.DiscoverStagedMatrix(dir)
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, m: m, info: info, budget: info.Bytes / nodes / 4, reg: obs.NewRegistry(), tracer: tracer}
	r.sys, err = core.NewSystem(core.Options{
		Nodes:          nodes,
		WorkersPerNode: workersPerNode,
		MemoryBudget:   r.budget,
		ScratchRoot:    dir,
		PrefetchWindow: 2,
		Reorder:        true,
		Seed:           e.seed,
		Obs:            r.reg,
		Trace:          tracer,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	cfg.Tag = "warmup"
	if _, err := core.RunIteratedSpMV(r.sys, cfg, jobs.StartVector(cfg.Dim, e.seed)); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func spmvConfig(e *env) core.SpMVConfig {
	return core.SpMVConfig{Dim: e.size.spmvDim, K: gridK, Iters: e.size.spmvIters, Nodes: nodes}
}

// repeatSetup runs setup e.size.setupReps times, closing all but the last
// result, and returns the last with the median setup time.
func repeatSetup[R interface{ close() }](e *env, name string, setup func(dir string) (R, error)) (R, float64, error) {
	var times []float64
	var kept R
	for i := 0; i < e.size.setupReps; i++ {
		if i > 0 {
			kept.close()
		}
		t0 := time.Now()
		r, err := setup(filepath.Join(e.work, fmt.Sprintf("%s-setup%d", name, i)))
		if err != nil {
			return r, 0, fmt.Errorf("%s setup: %w", name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		kept = r
	}
	return kept, median(times), nil
}

// spmvPhase is one measured window of RunIteratedSpMV calls.
type spmvPhase struct {
	phase
	shas [][32]byte
}

func spmvMeasure(e *env, r *rig, window time.Duration) *spmvPhase {
	cfg := spmvConfig(e)
	x0 := jobs.StartVector(cfg.Dim, e.seed)
	p := &spmvPhase{}
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(window)
	for n := 0; time.Now().Before(deadline); n++ {
		cfg.Tag = fmt.Sprintf("c%d", n)
		t0 := time.Now()
		res, err := core.RunIteratedSpMV(r.sys, cfg, x0)
		t1 := time.Now()
		if err != nil {
			p.errs++
			fmt.Fprintln(os.Stderr, "perfbench: spmv call:", err)
			continue
		}
		benchSpan(r.tracer, "call", t0, t1)
		p.opMs = append(p.opMs, ms(t1.Sub(t0)))
		p.iters += float64(cfg.Iters)
		p.shas = append(p.shas, resultSHA(res.X))
	}
	end := time.Now()
	benchSpan(r.tracer, "window", start, end)
	p.wall = end.Sub(start)
	p.cpu = processCPU() - cpu0
	return p
}

// spmvRef computes the references for one seed: the same run in memory with
// an ample budget, and the plain in-core iteration.
func spmvRef(e *env, m *sparse.CSR) (spmvReference, error) {
	cfg := spmvConfig(e)
	sys, err := core.NewSystem(core.Options{Nodes: nodes, WorkersPerNode: workersPerNode, PrefetchWindow: 2, Reorder: true, Seed: e.seed})
	if err != nil {
		return spmvReference{}, err
	}
	defer sys.Close()
	if err := core.LoadMatrixInMemory(sys, m, cfg); err != nil {
		return spmvReference{}, err
	}
	cfg.Tag = "ref"
	x0 := jobs.StartVector(cfg.Dim, e.seed)
	res, err := core.RunIteratedSpMV(sys, cfg, x0)
	if err != nil {
		return spmvReference{}, err
	}
	return spmvReference{sha: resultSHA(res.X), x: res.X, plain: plainIterate(m, x0, cfg.Iters)}, nil
}

func runSpMV(e *env) (*outcome, error) {
	r, setupS, err := repeatSetup(e, "spmv", func(dir string) (*rig, error) { return spmvSetup(e, dir, nil) })
	if err != nil {
		return nil, err
	}
	defer r.close()
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	out.info = map[string]any{
		"matrix_dim": r.info.Dim, "matrix_nnz": r.info.NNZ, "matrix_bytes": r.info.Bytes,
		"node_budget_bytes": r.budget, "nodes": nodes, "workers_per_node": workersPerNode,
		"iters_per_call": e.size.spmvIters, "setup_reps": e.size.setupReps,
	}
	window := e.window
	if e.trace {
		window /= 2
	}
	// Counters come from the untraced phase; the traced phase gives spans.
	st0, reorders0, refs0 := storageTotals(r.sys), r.reg.Sum("dooc_sched_reorders_total"), r.reg.Sum("dooc_sched_prefetch_refs_total")
	rssStop := sampleRSS()
	mem0 := readMem()
	plain := spmvMeasure(e, r, window)
	mem1 := readMem()
	rss, err := rssStop()
	if err != nil {
		return nil, err
	}
	if len(plain.opMs) == 0 {
		return nil, fmt.Errorf("no spmv call completed")
	}
	storageMetrics(out.metrics, st0, storageTotals(r.sys), plain.iters)
	out.metrics["scheduler.reorders_per_iter"] = float64(r.reg.Sum("dooc_sched_reorders_total")-reorders0) / plain.iters
	out.metrics["scheduler.prefetch_refs_per_iter"] = float64(r.reg.Sum("dooc_sched_prefetch_refs_total")-refs0) / plain.iters
	runtimeMetrics(out.metrics, mem0, mem1, plain.iters)
	phases := []*spmvPhase{plain}

	var traced *spmvPhase
	var tr *rig
	if e.trace {
		tr, err = spmvSetup(e, filepath.Join(e.work, "spmv-traced"), obs.NewTracer())
		if err != nil {
			return nil, err
		}
		defer tr.close()
		traced = spmvMeasure(e, tr, window)
		if len(traced.opMs) == 0 {
			return nil, fmt.Errorf("no traced spmv call completed")
		}
		phases = append(phases, traced)
	}

	ref, err := spmvRef(e, r.m)
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		out.attempted += int64(len(p.shas)) + p.errs
		out.failed += countWrong(p.shas, ref) + p.errs
	}

	out.setE2E(&plain.phase, setupS, rss, e.size.setupReps)
	out.info["ref_rel_err_vs_incore"] = relErr(ref.x, ref.plain)
	if !e.trace {
		return out, nil
	}

	spans, err := tracerSpans(tr.tracer)
	if err != nil {
		return nil, err
	}
	var eng engineTotals
	win := benchSpans(spans, "window", nil)[0]
	for _, w := range benchSpans(spans, "call", &win) {
		eng.addWindow(spans, w.start, w.end, nil)
	}
	pr, err := runProbe(tr.dir, gridK, nodes, 600*time.Millisecond)
	if err != nil {
		return nil, err
	}
	pr.metrics(out.metrics)
	engineMetrics(out.metrics, &eng, traced.iters, float64(len(traced.opMs)), traced.opMs)
	totals := map[string]float64{}
	eng.bucketsMs(totals)
	out.split = makeSplit(out.metrics, totals, ms(traced.wall), traced.iters)
	out.metrics["trace.overhead_ratio"] = traced.iterP50() / plain.iterP50()
	zeroAbsent(out.metrics)
	out.samples["traced_calls"] = len(traced.opMs)
	return out, nil
}

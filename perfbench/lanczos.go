package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dooc/internal/core"
	"dooc/internal/lanczos"
	"dooc/internal/obs"
	"dooc/internal/sparse"
)

// lanczosWant is how many of the lowest eigenvalues are checked.
const lanczosWant = 4

// timedOperator times each Apply of the out-of-core operator. It implements
// exactly the interfaces core.Operator does (checked by sameSolverInterfaces),
// so Solve takes the same branch with and without it.
type timedOperator struct {
	op     *core.Operator
	tracer *obs.Tracer
}

func (t timedOperator) Dim() int { return t.op.Dim() }

func (t timedOperator) Apply(x []float64) ([]float64, error) {
	t0 := time.Now()
	y, err := t.op.Apply(x)
	benchSpan(t.tracer, "apply", t0, time.Now())
	return y, err
}

// timedBasis times each append and read of the spilled basis.
type timedBasis struct {
	b      *core.BasisStore
	tracer *obs.Tracer
}

func (t timedBasis) Append(v []float64) error {
	t0 := time.Now()
	err := t.b.Append(v)
	benchSpan(t.tracer, "append", t0, time.Now())
	return err
}

func (t timedBasis) Len() int { return t.b.Len() }

func (t timedBasis) Vector(j int) ([]float64, error) {
	t0 := time.Now()
	v, err := t.b.Vector(j)
	benchSpan(t.tracer, "read", t0, time.Now())
	return v, err
}

// sameSolverInterfaces reports whether a and b satisfy the same optional
// interfaces lanczos.Solve type-asserts.
func sameSolverInterfaces(a, b lanczos.Operator) bool {
	_, af := a.(lanczos.FusedOperator)
	_, bf := b.(lanczos.FusedOperator)
	_, ad := a.(lanczos.DotOperator)
	_, bd := b.(lanczos.DotOperator)
	return af == bf && ad == bd
}

// lanczosSetup generates and stages a symmetric matrix and builds the System
// with doocsolve's options (256 MiB per node: the matrix stays resident),
// then runs one warm-up solve.
func lanczosSetup(e *env, dir string, tracer *obs.Tracer) (*rig, error) {
	sz := e.size
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: sz.lzDim, Cols: sz.lzDim, D: sz.lzD, Seed: e.seed, Symmetric: true})
	if err != nil {
		return nil, err
	}
	cfg := core.SpMVConfig{Dim: sz.lzDim, K: gridK, Iters: 1, Nodes: nodes}
	if err := core.StageMatrix(dir, m, cfg); err != nil {
		return nil, err
	}
	info, err := core.DiscoverStagedMatrix(dir)
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, m: m, info: info, budget: 1 << 28, tracer: tracer}
	opts := core.Options{
		Nodes:          nodes,
		WorkersPerNode: workersPerNode,
		MemoryBudget:   r.budget,
		ScratchRoot:    dir,
		PrefetchWindow: 2,
		Reorder:        true,
		Seed:           e.seed,
		Trace:          tracer,
	}
	if tracer != nil {
		r.reg = obs.NewRegistry()
		opts.Obs = r.reg
	}
	if r.sys, err = core.NewSystem(opts); err != nil {
		r.close()
		return nil, err
	}
	if _, err := lanczosSolve(e, r, "warmup"); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// lanczosSolve runs one solve with a fresh spilled basis, as doocsolve does.
func lanczosSolve(e *env, r *rig, tag string) (*lanczos.Result, error) {
	op := &core.Operator{Sys: r.sys, Cfg: core.SpMVConfig{Dim: r.info.Dim, K: gridK, Iters: 1, Nodes: nodes, Tag: tag}}
	basis := &core.BasisStore{Store: r.sys.Store(0), Prefix: tag, Spill: true}
	defer basis.Close()
	var sop lanczos.Operator = op
	var sb lanczos.Basis = basis
	if r.tracer != nil {
		sop, sb = timedOperator{op, r.tracer}, timedBasis{basis, r.tracer}
		if !sameSolverInterfaces(op, sop) {
			return nil, fmt.Errorf("timing wrapper changes the operator interfaces Solve asserts")
		}
	}
	t0 := time.Now()
	res, err := lanczos.Solve(sop, lanczos.Options{Steps: e.size.lzSteps, Seed: e.seed, Basis: sb})
	benchSpan(r.tracer, "solve", t0, time.Now())
	return res, err
}

type lanczosPhase struct {
	phase
	eigs [][]float64
}

func lanczosMeasure(e *env, r *rig, window time.Duration) *lanczosPhase {
	p := &lanczosPhase{}
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(window)
	for n := 0; time.Now().Before(deadline); n++ {
		t0 := time.Now()
		res, err := lanczosSolve(e, r, fmt.Sprintf("s%d", n))
		if err != nil {
			p.errs++
			fmt.Fprintln(os.Stderr, "perfbench: lanczos solve:", err)
			continue
		}
		p.opMs = append(p.opMs, ms(time.Since(t0)))
		p.iters += float64(res.SpMVs)
		p.eigs = append(p.eigs, res.Lowest(lanczosWant))
	}
	end := time.Now()
	benchSpan(r.tracer, "window", start, end)
	p.wall = end.Sub(start)
	p.cpu = processCPU() - cpu0
	return p
}

// countWrongEigen counts solves whose lowest eigenvalues miss the in-core
// reference or differ in any bit from first, the first untraced solve.
func countWrongEigen(eigs [][]float64, ref, first []float64) int64 {
	var n int64
	for _, got := range eigs {
		same := len(got) == len(first)
		for i := 0; same && i < len(got); i++ {
			same = math.Float64bits(got[i]) == math.Float64bits(first[i])
		}
		if !same || !eigenOK(got, ref) {
			n++
		}
	}
	return n
}

func runLanczos(e *env) (*outcome, error) {
	r, setupS, err := repeatSetup(e, "lanczos", func(dir string) (*rig, error) { return lanczosSetup(e, dir, nil) })
	if err != nil {
		return nil, err
	}
	defer r.close()
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	out.info = map[string]any{
		"matrix_dim": r.info.Dim, "matrix_nnz": r.info.NNZ, "matrix_bytes": r.info.Bytes,
		"node_budget_bytes": r.budget, "nodes": nodes, "workers_per_node": workersPerNode,
		"lanczos_steps": e.size.lzSteps, "setup_reps": e.size.setupReps,
	}
	window := e.window
	if e.trace {
		window /= 2
	}
	rssStop := sampleRSS()
	mem0 := readMem()
	plain := lanczosMeasure(e, r, window)
	mem1 := readMem()
	rss, err := rssStop()
	if err != nil {
		return nil, err
	}
	if len(plain.opMs) == 0 {
		return nil, fmt.Errorf("no lanczos solve completed")
	}
	runtimeMetrics(out.metrics, mem0, mem1, plain.iters)
	phases := []*lanczosPhase{plain}

	var traced *lanczosPhase
	var tr *rig
	if e.trace {
		if tr, err = lanczosSetup(e, filepath.Join(e.work, "lanczos-traced"), obs.NewTracer()); err != nil {
			return nil, err
		}
		defer tr.close()
		st0, reorders0, refs0 := storageTotals(tr.sys), tr.reg.Sum("dooc_sched_reorders_total"), tr.reg.Sum("dooc_sched_prefetch_refs_total")
		traced = lanczosMeasure(e, tr, window)
		if len(traced.opMs) == 0 {
			return nil, fmt.Errorf("no traced lanczos solve completed")
		}
		storageMetrics(out.metrics, st0, storageTotals(tr.sys), traced.iters)
		out.metrics["scheduler.reorders_per_iter"] = float64(tr.reg.Sum("dooc_sched_reorders_total")-reorders0) / traced.iters
		out.metrics["scheduler.prefetch_refs_per_iter"] = float64(tr.reg.Sum("dooc_sched_prefetch_refs_total")-refs0) / traced.iters
		phases = append(phases, traced)
	}

	ref, err := lanczos.Solve(lanczos.MatrixOperator{M: r.m}, lanczos.Options{Steps: e.size.lzSteps, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	refEig := ref.Lowest(lanczosWant)
	for _, p := range phases {
		out.attempted += int64(len(p.eigs)) + p.errs
		out.failed += countWrongEigen(p.eigs, refEig, plain.eigs[0]) + p.errs
	}

	out.setE2E(&plain.phase, setupS, rss, e.size.setupReps)
	out.info["ref_eigenvalues"] = refEig
	if !e.trace {
		return out, nil
	}

	spans, err := tracerSpans(tr.tracer)
	if err != nil {
		return nil, err
	}
	var eng engineTotals
	var applyMs []float64
	// Only spans inside the measured window count, not the warm-up solve's.
	win := benchSpans(spans, "window", nil)[0]
	for _, w := range benchSpans(spans, "apply", &win) {
		eng.addWindow(spans, w.start, w.end, nil)
		applyMs = append(applyMs, w.dur()/1e3)
	}
	var appendUs, readUs, solveUs float64
	for _, s := range benchSpans(spans, "append", &win) {
		appendUs += s.dur()
	}
	for _, s := range benchSpans(spans, "read", &win) {
		readUs += s.dur()
	}
	for _, s := range benchSpans(spans, "solve", &win) {
		solveUs += s.dur()
	}
	pr, err := runProbe(tr.dir, gridK, nodes, 600*time.Millisecond)
	if err != nil {
		return nil, err
	}
	pr.metrics(out.metrics)
	steps := traced.iters
	engineMetrics(out.metrics, &eng, steps, float64(len(applyMs)), applyMs)
	out.metrics["storage.basis_append_ms_per_step"] = appendUs / 1e3 / steps
	out.metrics["storage.basis_read_ms_per_step"] = readUs / 1e3 / steps
	solverUs := solveUs - eng.windows - appendUs - readUs
	out.metrics["lanczos.solver_ms_per_step"] = solverUs / 1e3 / steps
	totals := map[string]float64{"basis_io": (appendUs + readUs) / 1e3, "solver": solverUs / 1e3}
	eng.bucketsMs(totals)
	out.split = makeSplit(out.metrics, totals, ms(traced.wall), steps)
	out.metrics["trace.overhead_ratio"] = traced.iterP50() / plain.iterP50()
	zeroAbsent(out.metrics)
	out.samples["traced_solves"] = len(traced.opMs)
	return out, nil
}

// Command perfbench is the DOoC benchmark: it runs one workload through the
// system the way users run it, checks every result against an independent
// reference, and prints the benchmark's metrics.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - spmv-ooc: closed loop of core.RunIteratedSpMV over a staged GAP matrix
//     four times larger than the summed per-node budgets (doocrun options).
//   - lanczos-spill: lanczos.Solve over core.Operator with a spilled
//     core.BasisStore (doocsolve options, matrix resident).
//   - service-jobs: a doocserve -jobs subprocess with its shipped defaults,
//     driven by two remote.Client connections for two tenants.
//
// Usage, from the repository root (perfbench/run.sh builds and runs this):
//
//	perfbench -root . --workload spmv-ooc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the final line carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run first measures half the window untraced
// and then half with Options.Trace (doocserve -trace) on, and the final line
// carries the per-layer metrics. Either way the last line of standard output
// is one JSON object {correct, attempted, failed, metrics}; the lines before it
// give provenance, sample counts and, when traced, the layer split.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// sizes fixes the inputs of every workload. The full preset is what the
// benchmark measures; the tiny preset exists for the self-test.
type sizes struct {
	spmvDim, spmvD, spmvIters int
	lzDim, lzD, lzSteps       int
	jobDim, jobD, jobIters    int
	setupReps                 int
}

var (
	fullSizes = sizes{
		spmvDim: 20000, spmvD: 256, spmvIters: 4,
		lzDim: 6000, lzD: 64, lzSteps: 16,
		jobDim: 8000, jobD: 128, jobIters: 4,
		setupReps: 7,
	}
	tinySizes = sizes{
		spmvDim: 800, spmvD: 16, spmvIters: 2,
		lzDim: 400, lzD: 16, lzSteps: 8,
		jobDim: 400, jobD: 16, jobIters: 2,
		setupReps: 1,
	}
)

// Fixed engine shape shared by every workload: the paper's K×K block grid
// spread over two in-process nodes, each with two computing filters.
const (
	gridK          = 4
	nodes          = 2
	workersPerNode = 2
	jobConns       = 2 // service-jobs closed-loop connections, one per CPU
)

// env is what a workload run receives.
type env struct {
	root      string // repository checkout
	work      string // private scratch directory for this run
	seed      int64
	window    time.Duration // measured window per phase
	trace     bool
	size      sizes
	doocserve string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int
	info              map[string]any // provenance: shape, budget, bytes
	split             []bucket       // traced runs only
}

// bucket is one row of the traced wall-time split, in ms per SpMV iteration.
type bucket struct {
	name  string
	ms    float64
	layer string // the repo module whose time this is
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"spmv-ooc":      runSpMV,
	"lanczos-spill": runLanczos,
	"service-jobs":  runService,
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout to run in")
		workload = flag.String("workload", "", "spmv-ooc | lanczos-spill | service-jobs")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*root, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, workload string, seed int64, seconds int, trace bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bin := filepath.Join(root, ".bench_build", "bin", "doocserve")
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("doocserve binary missing (build it with perfbench/run.sh): %w", err)
	}
	work := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// A signal must still tear down the doocserve subprocess and scratch.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAllServers()
		os.RemoveAll(work)
		os.Exit(1)
	}()

	e := &env{root: root, work: work, seed: seed, window: time.Duration(seconds) * time.Second,
		trace: trace, size: fullSizes, doocserve: bin}
	return execute(e, workload, os.Stdout)
}

// execute runs one workload and prints its result to w.
func execute(e *env, workload string, w io.Writer) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	out, err := fn(e)
	if left := leftoverServers(e.doocserve); len(left) > 0 {
		err = errors.Join(err, fmt.Errorf("doocserve still running after the workload: pids %v", left))
	}
	if err != nil {
		return err
	}
	return report(w, workload, e, out)
}

// report prints provenance, the traced split, and the final result line.
func report(w io.Writer, workload string, e *env, out *outcome) error {
	names := e2eMetrics
	if e.trace {
		names = layerMetricNames()
	}
	metrics := make(map[string]any, len(names))
	for _, m := range names {
		v, ok := out.metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", workload, m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	prov := provenance(e, workload)
	prov["samples"] = out.samples
	for k, v := range out.info {
		prov[k] = v
	}
	if err := printJSONLine(w, map[string]any{"provenance": prov}); err != nil {
		return err
	}
	named := map[string]any{"failed_ratio": map[string]any{
		"value": float64(out.failed) / float64(max(out.attempted, 1)), "unit": "ratio"}}
	if !e.trace {
		for _, a := range workloadNames[workload] {
			named[a.name] = map[string]any{"value": out.metrics[a.from] * a.scale, "unit": a.unit}
		}
	}
	if err := printJSONLine(w, map[string]any{"workload_metrics": named}); err != nil {
		return err
	}
	if e.trace {
		printSplit(w, workload, out.split)
		fmt.Fprintln(w, "per-layer metrics and the end-to-end metric each should move:")
		for _, l := range layerMetrics {
			fmt.Fprintf(w, "  %-38s %14.6g %-8s %s\n", l.name, out.metrics[l.name], l.unit, l.moves)
		}
	}
	return printJSONLine(w, map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printSplit prints the traced wall split: every bucket, the other
// remainder, and their sum next to the traced wall.
func printSplit(w io.Writer, workload string, split []bucket) {
	fmt.Fprintf(w, "layer split for %s (ms per SpMV iteration, traced run):\n", workload)
	var wall, sum float64
	for _, b := range split {
		if b.name == "wall" {
			wall = b.ms
			continue
		}
		sum += b.ms
		fmt.Fprintf(w, "  %-14s %-12s %10.4f\n", b.name, b.layer, b.ms)
	}
	fmt.Fprintf(w, "  %-27s %10.4f\n", "sum", sum)
	fmt.Fprintf(w, "  %-27s %10.4f\n", "traced wall", wall)
}

// e2eMetrics are the end-to-end metrics every untraced run prints.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"iter_ms_p50", "ms"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_iter", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

// workloadNames gives the workload-specific name of an end-to-end metric:
// the operation op_* times is a Lanczos solve on lanczos-spill and a job,
// submit to result bytes, on service-jobs.
var workloadNames = map[string][]struct {
	name, from, unit string
	scale            float64
}{
	"lanczos-spill": {{"solve_s", "op_ms_p50", "s", 1e-3}},
	"service-jobs": {
		{"job_ms_p50", "op_ms_p50", "ms", 1},
		{"job_ms_p90", "op_ms_p90", "ms", 1},
		{"jobs_per_s", "ops_per_s", "1/s", 1},
	},
}

// phase is one measured window: opMs holds the wall time of each operation
// (a RunIteratedSpMV call, a solve or a job), iters the SpMV iterations
// they executed, cpu the CPU time of the process doing the work.
type phase struct {
	opMs      []float64
	iters     float64
	wall, cpu time.Duration
	errs      int64
}

// iterP50 is the median operation time divided by iterations per operation.
func (p *phase) iterP50() float64 {
	return median(p.opMs) / (p.iters / float64(len(p.opMs)))
}

// setE2E fills the end-to-end metrics from the untraced phase, with the
// sample count each rests on.
func (o *outcome) setE2E(p *phase, setupS, rssMB float64, reps int) {
	o.metrics["setup_s"] = setupS
	o.metrics["iter_ms_p50"] = p.iterP50()
	o.metrics["op_ms_p50"] = median(p.opMs)
	o.metrics["op_ms_p90"] = quantile(p.opMs, 0.9)
	o.metrics["ops_per_s"] = float64(len(p.opMs)) / p.wall.Seconds()
	o.metrics["cpu_ms_per_iter"] = ms(p.cpu) / p.iters
	o.metrics["peak_rss_mb"] = rssMB
	ops := len(p.opMs)
	for _, m := range []string{"iter_ms_p50", "op_ms_p50", "op_ms_p90", "ops_per_s"} {
		o.samples[m] = ops
	}
	o.samples["setup_s"] = reps
	o.samples["cpu_ms_per_iter"] = int(p.iters)
	o.samples["peak_rss_mb"] = 1
	// A p90 is reported with at least ten samples beyond it.
	o.info["tail_p90_has_10_beyond"] = ops >= 100
}

func layerMetricNames() []metricDef {
	out := make([]metricDef, 0, len(layerMetrics))
	for _, l := range layerMetrics {
		out = append(out, metricDef{l.name, l.unit})
	}
	return out
}

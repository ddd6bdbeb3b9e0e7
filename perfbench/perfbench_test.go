package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dooc/internal/lanczos"
	"dooc/internal/sparse"
)

// Self-test of the benchmark at tiny sizes: every metric BENCHMARK.json
// names is emitted with its unit, and every correctness check fails when
// fed a perturbed reference. Run with: cd perfbench && go test .

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyEnv(t *testing.T, trace bool, bin string) *env {
	return &env{root: "..", work: t.TempDir(), seed: 3, window: time.Second,
		trace: trace, size: tinySizes, doocserve: bin}
}

// buildServer builds doocserve for the service-jobs workload.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "doocserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/doocserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building doocserve: %v\n%s", err, out)
	}
	return bin
}

func TestLayerTableMatchesBenchmarkFile(t *testing.T) {
	b := loadBenchFile(t)
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		l := layerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, layers.go has %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, main.go %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %+v, main.go has %+v", i, m, e2eMetrics[i])
		}
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchFile(t)
	bin := buildServer(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			var out bytes.Buffer
			if err := execute(tinyEnv(t, trace, bin), w.Name, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace {
				checkSplitSums(t, w.Name, res.Metrics)
			}
		}
	}
	if left := leftoverServers(bin); len(left) > 0 {
		t.Errorf("doocserve left running: %v", left)
	}
}

// checkSplitSums verifies the traced split: buckets plus other equal the
// traced wall.
func checkSplitSums(t *testing.T, workload string, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	wall := metrics["split.wall_ms_per_iter"].Value
	sum := 0.0
	for _, b := range splitOrder {
		sum += metrics[splitMetric(b)].Value
	}
	if wall <= 0 || math.Abs(sum-wall) > 1e-9*wall {
		t.Errorf("%s: split sums to %v, traced wall %v", workload, sum, wall)
	}
}

func TestSpMVCheckFailsOnPerturbedReference(t *testing.T) {
	e := tinyEnv(t, false, "")
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: e.size.spmvDim, Cols: e.size.spmvDim, D: e.size.spmvD, Seed: e.seed})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := spmvRef(e, m)
	if err != nil {
		t.Fatal(err)
	}
	results := [][32]byte{ref.sha, ref.sha}
	if n := countWrong(results, ref); n != 0 {
		t.Fatalf("true reference: %d wrong", n)
	}
	badSHA := ref
	badSHA.sha[0] ^= 1
	if n := countWrong(results, badSHA); n != 2 {
		t.Errorf("perturbed SHA reference: %d wrong, want 2", n)
	}
	badPlain := ref
	badPlain.plain = append([]float64(nil), ref.plain...)
	for i := range badPlain.plain {
		badPlain.plain[i] *= 1 + 1e-10
	}
	if n := countWrong(results, badPlain); n != 2 {
		t.Errorf("perturbed in-core reference: %d wrong, want 2", n)
	}
}

func TestLanczosCheckFailsOnPerturbedReference(t *testing.T) {
	e := tinyEnv(t, false, "")
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: e.size.lzDim, Cols: e.size.lzDim, D: e.size.lzD, Seed: e.seed, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lanczos.Solve(lanczos.MatrixOperator{M: m}, lanczos.Options{Steps: e.size.lzSteps, Seed: e.seed})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Lowest(lanczosWant)
	eigs := [][]float64{ref}
	if n := countWrongEigen(eigs, ref, ref); n != 0 {
		t.Fatalf("true reference: %d wrong", n)
	}
	bad := append([]float64(nil), ref...)
	bad[1] *= 1 + 1e-8
	if n := countWrongEigen(eigs, bad, ref); n != 1 {
		t.Errorf("perturbed in-core reference: %d wrong, want 1", n)
	}
	first := append([]float64(nil), ref...)
	first[0] = math.Nextafter(first[0], math.Inf(1))
	if n := countWrongEigen(eigs, ref, first); n != 1 {
		t.Errorf("one-ulp bitwise reference: %d wrong, want 1", n)
	}
}

func TestServiceCheckFailsOnPerturbedReference(t *testing.T) {
	e := tinyEnv(t, false, "")
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: e.size.jobDim, Cols: e.size.jobDim, D: e.size.jobD, Seed: e.seed})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := serviceRefs(e, m)
	if err != nil {
		t.Fatal(err)
	}
	var js []jobRecord
	for seed, sha := range refs {
		js = append(js, jobRecord{seed: seed, sha: sha})
	}
	if n := countWrongJobs(js, refs); n != 0 {
		t.Fatalf("true references: %d wrong", n)
	}
	seed := js[0].seed
	bad := refs[seed]
	bad[31] ^= 0x80
	refs[seed] = bad
	if n := countWrongJobs(js, refs); n != 1 {
		t.Errorf("perturbed reference: %d wrong, want 1", n)
	}
}

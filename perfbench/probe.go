package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dooc/internal/sparse"
	"dooc/internal/spmv"
)

// probe times the sparse layer directly on a workload's own staged blocks:
// one round decodes (or multiplies) every block of the K×K grid once, which
// is what one SpMV iteration asks of the layer when the engine runs without a
// decode cache. Reported per iteration as the median round.
type probe struct {
	decodeMs, decodeMBps             float64
	kernelMs, gflops, gbps, gflops1t float64
}

func runProbe(stage string, k, nodeCount int, budget time.Duration) (probe, error) {
	var raw [][]byte
	var rawBytes float64
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			p := filepath.Join(stage, fmt.Sprintf("node%d", u%nodeCount), spmv.MatrixArray(u, v)+".arr")
			b, err := os.ReadFile(p)
			if err != nil {
				return probe{}, fmt.Errorf("probe: %w", err)
			}
			raw = append(raw, b)
			rawBytes += float64(len(b))
		}
	}
	blocks := make([]*sparse.CSR, len(raw))
	decodeRound := func() error {
		for i, b := range raw {
			m, err := sparse.DecodeCRSBytes(b)
			if err != nil {
				return fmt.Errorf("probe decode: %w", err)
			}
			blocks[i] = m
		}
		return nil
	}
	dec, err := timeRounds(budget/3, decodeRound)
	if err != nil {
		return probe{}, err
	}

	var nnz, touched float64
	xs := make([][]float64, len(blocks))
	ys := make([][]float64, len(blocks))
	rng := rand.New(rand.NewSource(1))
	for i, m := range blocks {
		xs[i] = make([]float64, m.Cols)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		ys[i] = make([]float64, m.Rows)
		nnz += float64(m.NNZ())
		// Values and column indices per entry, row pointers and outputs per
		// row, the input vector once.
		touched += 12*float64(m.NNZ()) + 16*float64(m.Rows) + 8*float64(m.Cols)
	}
	kernel := func(width int) (float64, error) {
		pool := sparse.NewPool(width)
		defer pool.Close()
		return timeRounds(budget/3, func() error {
			for i, m := range blocks {
				pool.MulVec(m, xs[i], ys[i])
			}
			return nil
		})
	}
	kw, err := kernel(workersPerNode)
	if err != nil {
		return probe{}, err
	}
	k1, err := kernel(1)
	if err != nil {
		return probe{}, err
	}
	return probe{
		decodeMs:   dec,
		decodeMBps: rawBytes / 1e6 / (dec / 1e3),
		kernelMs:   kw,
		gflops:     2 * nnz / 1e9 / (kw / 1e3),
		gbps:       touched / 1e9 / (kw / 1e3),
		gflops1t:   2 * nnz / 1e9 / (k1 / 1e3),
	}, nil
}

// timeRounds runs round repeatedly for about budget (at least 5 times) and
// returns the median round time in ms.
func timeRounds(budget time.Duration, round func() error) (float64, error) {
	var times []float64
	deadline := time.Now().Add(budget)
	for len(times) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := round(); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

func (p probe) metrics(into map[string]float64) {
	into["sparse.decode_ms_per_iter"] = p.decodeMs
	into["sparse.decode_mb_per_s"] = p.decodeMBps
	into["sparse.kernel_ms_per_iter"] = p.kernelMs
	into["sparse.kernel_gflops"] = p.gflops
	into["sparse.kernel_gbps_computed"] = p.gbps
	into["sparse.kernel_gflops_1t"] = p.gflops1t
}

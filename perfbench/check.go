package main

import (
	"crypto/sha256"
	"math"

	"dooc/internal/jobs"
	"dooc/internal/sparse"
)

// Correctness checks. Each takes its reference as an argument so the
// self-test can feed a perturbed one and see the check fail.

// resultSHA hashes a vector in the service's little-endian payload encoding.
func resultSHA(x []float64) [32]byte { return sha256.Sum256(jobs.EncodeFloat64s(x)) }

// plainIterate runs iters power iterations in core with the sparse kernel,
// the independent reference for the engine's result.
func plainIterate(m *sparse.CSR, x0 []float64, iters int) []float64 {
	x := append([]float64(nil), x0...)
	y := make([]float64, len(x))
	for i := 0; i < iters; i++ {
		sparse.MulVec(m, x, y)
		x, y = y, x
	}
	return x
}

// relErr is ‖a−b‖₂ / ‖b‖₂.
func relErr(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d, n float64
	for i := range a {
		d += (a[i] - b[i]) * (a[i] - b[i])
		n += b[i] * b[i]
	}
	if n == 0 {
		return math.Sqrt(d)
	}
	return math.Sqrt(d / n)
}

// spmvReference is the pair of references for spmv-ooc: the SHA of the same
// seed run in memory with an ample budget, and the plain in-core iterate.
type spmvReference struct {
	sha   [32]byte
	x     []float64 // the ample-budget result the SHA was taken of
	plain []float64
}

// ok reports whether the ample-budget engine result agrees with the
// plain in-core iteration to a relative 1e-12.
func (r spmvReference) ok() bool { return relErr(r.x, r.plain) <= 1e-12 }

// countWrong counts results that differ from the reference SHA; every result
// counts as wrong when the reference itself fails its in-core check.
func countWrong(results [][32]byte, ref spmvReference) int64 {
	if !ref.ok() {
		return int64(len(results))
	}
	var n int64
	for _, s := range results {
		if s != ref.sha {
			n++
		}
	}
	return n
}

// eigenOK reports whether every one of the lowest eigenvalues got matches
// ref within 1e-9 relative.
func eigenOK(got, ref []float64) bool {
	if len(got) != len(ref) || len(ref) == 0 {
		return false
	}
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-9*math.Abs(ref[i]) {
			return false
		}
	}
	return true
}

package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dooc/internal/sparse"
)

func checkpointFixture(t *testing.T) (*sparse.CSR, []float64, string) {
	t.Helper()
	const dim = 48
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: 3, Iters: 1, Nodes: 2}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	return m, x0, root
}

func checkpointSystem(t *testing.T, root string) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		Nodes:          2,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 20,
		Reorder:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestResumeFromScratchMatchesStraightRun: resuming with no checkpoint is a
// plain (checkpointed) run; its result matches RunIteratedSpMV exactly.
func TestResumeFromScratchMatchesStraightRun(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys := checkpointSystem(t, root)
	defer sys.Close()
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 3, Nodes: 2, Tag: "job1"}
	res, from, err := ResumeIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 0 {
		t.Fatalf("resumed from %d on a fresh run", from)
	}
	want := referenceIterate(m, x0, 3)
	if d := maxAbsDiff(res.X, want); d > 1e-10 {
		t.Fatalf("checkpointed run differs by %v", d)
	}
}

// TestInterruptedRunResumes: run 2 iterations, tear the system down
// (the "crash"), bring a fresh system up over the same scratch, and resume
// to 5 total iterations. The resumed result must match an uninterrupted
// 5-iteration reference, and the resume must start at iteration 2.
func TestInterruptedRunResumes(t *testing.T) {
	m, x0, root := checkpointFixture(t)

	sys1 := checkpointSystem(t, root)
	cfgFirst := SpMVConfig{Dim: m.Rows, K: 3, Iters: 2, Nodes: 2, Tag: "job2"}
	if _, from, err := ResumeIteratedSpMV(sys1, cfgFirst, x0); err != nil || from != 0 {
		t.Fatalf("first segment: from=%d err=%v", from, err)
	}
	sys1.Close() // the crash

	sys2 := checkpointSystem(t, root)
	defer sys2.Close()
	cfgFull := SpMVConfig{Dim: m.Rows, K: 3, Iters: 5, Nodes: 2, Tag: "job2"}
	res, from, err := ResumeIteratedSpMV(sys2, cfgFull, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 {
		t.Fatalf("resumed from %d, want 2", from)
	}
	want := referenceIterate(m, x0, 5)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("resumed result differs by %v", d)
	}
}

// TestResumeAlreadyComplete: asking for fewer iterations than are already
// checkpointed returns the stored iterate without running anything.
func TestResumeAlreadyComplete(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys := checkpointSystem(t, root)
	defer sys.Close()
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 3, Nodes: 2, Tag: "job3"}
	full, _, err := ResumeIteratedSpMV(sys, cfg, x0)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Iters = 2
	res, from, err := ResumeIteratedSpMV(sys, cfg2, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 3 {
		t.Fatalf("from = %d, want 3 (latest checkpoint)", from)
	}
	// The returned iterate is x^3, not x^2 — resume never rolls back.
	if d := maxAbsDiff(res.X, full.X); d != 0 {
		t.Fatalf("returned iterate differs from stored checkpoint by %v", d)
	}
}

// mutateCheckpointPart finds the named checkpoint file under one of the
// node scratch directories and rewrites it through mutate.
func mutateCheckpointPart(t *testing.T, root, name string, mutate func([]byte) []byte) {
	t.Helper()
	for node := 0; ; node++ {
		dir := filepath.Join(root, fmt.Sprintf("node%d", node))
		if _, err := os.Stat(dir); err != nil {
			break
		}
		p := filepath.Join(dir, name)
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("checkpoint part %s not found under %s", name, root)
}

// TestCorruptCheckpointFallsBack: a part torn or bit-rotted by a crash
// mid-write must never be resumed from. A flipped payload byte (CRC
// mismatch) in the newest iteration drops the scan to the previous one; a
// truncation there drops it once more; and the resume from the surviving
// iteration still converges to the uninterrupted reference.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sys1 := checkpointSystem(t, root)
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 4, Nodes: 2, Tag: "job4"}
	if _, _, err := ResumeIteratedSpMV(sys1, cfg, x0); err != nil {
		t.Fatal(err)
	}
	sys1.Close()

	mutateCheckpointPart(t, root, "job4:x_4_1.arr", func(b []byte) []byte {
		b[3] ^= 0x40
		return b
	})
	ck, err := LatestCheckpoint(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Iter != 3 {
		t.Fatalf("after corrupting iteration 4, latest = %+v, want iteration 3", ck)
	}

	// A part that lost exactly its CRC trailer has the bare payload length;
	// it must still be refused, never resumed from unchecked.
	mutateCheckpointPart(t, root, "job4:x_3_0.arr", func(b []byte) []byte {
		return b[:len(b)-4]
	})
	ck, err = LatestCheckpoint(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Iter != 2 {
		t.Fatalf("after stripping iteration 3's trailer, latest = %+v, want iteration 2", ck)
	}

	mutateCheckpointPart(t, root, "job4:x_2_0.arr", func(b []byte) []byte {
		return b[:len(b)/2]
	})
	ck, err = LatestCheckpoint(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Iter != 1 {
		t.Fatalf("after truncating iteration 2, latest = %+v, want iteration 1", ck)
	}

	sys2 := checkpointSystem(t, root)
	defer sys2.Close()
	cfgFull := cfg
	cfgFull.Iters = 5
	res, from, err := ResumeIteratedSpMV(sys2, cfgFull, x0)
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 {
		t.Fatalf("resumed from %d, want 1 (newest valid checkpoint)", from)
	}
	want := referenceIterate(m, x0, 5)
	if d := maxAbsDiff(res.X, want); d > 1e-9 {
		t.Fatalf("resumed result differs by %v", d)
	}
}

// TestCheckpointValidation covers the guard rails.
func TestCheckpointValidation(t *testing.T) {
	m, x0, root := checkpointFixture(t)
	sysNoScratch, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sysNoScratch.Close()
	cfg := SpMVConfig{Dim: m.Rows, K: 3, Iters: 2, Nodes: 2, Tag: "x"}
	if _, _, err := ResumeIteratedSpMV(sysNoScratch, cfg, x0); err == nil {
		t.Error("checkpointing without scratch accepted")
	}
	cfg.Tag = ""
	if _, err := LatestCheckpoint(root, cfg); err == nil {
		t.Error("empty tag accepted")
	}
	cfg.Tag = "nothing-here"
	ck, err := LatestCheckpoint(root, cfg)
	if err != nil || ck != nil {
		t.Errorf("expected no checkpoint, got %+v err %v", ck, err)
	}
}

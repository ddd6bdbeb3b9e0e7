package simclock

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := New()
	var order []int
	c.At(3, func() { order = append(order, 3) })
	c.At(1, func() { order = append(order, 1) })
	c.At(2, func() { order = append(order, 2) })
	c.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if c.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", c.Now())
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(5, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	c := New()
	var at Time
	c.At(10, func() {
		c.After(5, func() { at = c.Now() })
	})
	c.Run()
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	h := c.At(1, func() { fired = true })
	h.Cancel()
	c.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double cancel is a no-op.
	h.Cancel()
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.At(10, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	c.At(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	c.After(-1, func() {})
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	c := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			c.After(1, recurse)
		}
	}
	c.After(1, recurse)
	c.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if c.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", c.Now())
	}
}

func TestSingleFlowCompletionTime(t *testing.T) {
	c := New()
	e := NewEngine(c)
	r := e.NewResource("disk", 100) // 100 units/s
	var done Time
	e.StartFlow("xfer", 500, []*Resource{r}, func(at Time) { done = at })
	c.Run()
	if math.Abs(float64(done-5)) > 1e-9 {
		t.Fatalf("completion at %v, want 5", done)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	c := New()
	e := NewEngine(c)
	r := e.NewResource("link", 10)
	var d1, d2 Time
	e.StartFlow("a", 100, []*Resource{r}, func(at Time) { d1 = at })
	e.StartFlow("b", 100, []*Resource{r}, func(at Time) { d2 = at })
	c.Run()
	// Each gets 5 units/s -> both finish at t=20.
	if math.Abs(float64(d1-20)) > 1e-9 || math.Abs(float64(d2-20)) > 1e-9 {
		t.Fatalf("completions %v %v, want 20 20", d1, d2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	c := New()
	e := NewEngine(c)
	r := e.NewResource("link", 10)
	var dShort, dLong Time
	e.StartFlow("long", 150, []*Resource{r}, func(at Time) { dLong = at })
	e.StartFlow("short", 50, []*Resource{r}, func(at Time) { dShort = at })
	c.Run()
	// Share 5/5 until short finishes at t=10 (50 units at 5/s); long then has
	// 100 left at 10/s -> finishes at t=20.
	if math.Abs(float64(dShort-10)) > 1e-9 {
		t.Fatalf("short done at %v, want 10", dShort)
	}
	if math.Abs(float64(dLong-20)) > 1e-9 {
		t.Fatalf("long done at %v, want 20", dLong)
	}
}

func TestBottleneckAcrossTwoResources(t *testing.T) {
	c := New()
	e := NewEngine(c)
	wide := e.NewResource("gpfs", 100)
	narrow := e.NewResource("nic", 10)
	var done Time
	e.StartFlow("xfer", 100, []*Resource{wide, narrow}, func(at Time) { done = at })
	c.Run()
	if math.Abs(float64(done-10)) > 1e-9 {
		t.Fatalf("done at %v, want 10 (bottleneck on nic)", done)
	}
}

func TestMaxMinFairnessClassic(t *testing.T) {
	// Classic max-min example: flows A (r1 only), B (r1+r2), C (r2 only).
	// r1 cap 10, r2 cap 4. B is bottlenecked on r2: B and C each get 2.
	// A then gets the rest of r1: 8.
	c := New()
	e := NewEngine(c)
	r1 := e.NewResource("r1", 10)
	r2 := e.NewResource("r2", 4)
	fa := e.StartFlow("A", 1e9, []*Resource{r1}, nil)
	fb := e.StartFlow("B", 1e9, []*Resource{r1, r2}, nil)
	fc := e.StartFlow("C", 1e9, []*Resource{r2}, nil)
	if math.Abs(fa.rate-8) > 1e-9 {
		t.Errorf("A rate = %v, want 8", fa.rate)
	}
	if math.Abs(fb.rate-2) > 1e-9 {
		t.Errorf("B rate = %v, want 2", fb.rate)
	}
	if math.Abs(fc.rate-2) > 1e-9 {
		t.Errorf("C rate = %v, want 2", fc.rate)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New()
	e := NewEngine(c)
	r := e.NewResource("r", 7)
	for i := 0; i < 13; i++ {
		e.StartFlow("f", 100, []*Resource{r}, nil)
	}
	sum := 0.0
	for _, f := range r.flows {
		sum += f.rate
	}
	if math.Abs(sum-7) > 1e-9 {
		t.Fatalf("allocated %v, want exactly the capacity 7", sum)
	}
}

func TestZeroAmountFlowCompletesImmediately(t *testing.T) {
	c := New()
	e := NewEngine(c)
	r := e.NewResource("r", 1)
	var done bool
	var at Time = -1
	c.At(3, func() {
		e.StartFlow("zero", 0, []*Resource{r}, func(t Time) { done = true; at = t })
	})
	c.Run()
	if !done || at != 3 {
		t.Fatalf("zero flow done=%v at=%v, want true at 3", done, at)
	}
}

// TestFlowConservationProperty: total virtual time to drain N flows on a
// single resource equals total work / capacity regardless of flow sizes
// (work conservation of max-min sharing).
func TestFlowConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		e := NewEngine(c)
		cap := 1 + rng.Float64()*99
		r := e.NewResource("r", cap)
		n := 1 + rng.Intn(20)
		total := 0.0
		var last Time
		for i := 0; i < n; i++ {
			amt := 1 + rng.Float64()*1000
			total += amt
			e.StartFlow("f", amt, []*Resource{r}, func(at Time) {
				if at > last {
					last = at
				}
			})
		}
		c.Run()
		want := total / cap
		return math.Abs(float64(last)-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStaggeredArrivalsConservation: flows arriving at random times on one
// resource still finish no later than (arrival span + total/capacity) and the
// resource is never over-allocated at reallocation points.
func TestStaggeredArrivalsConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		e := NewEngine(c)
		r := e.NewResource("r", 10)
		n := 1 + rng.Intn(15)
		var finished int
		total := 0.0
		maxArrival := 0.0
		for i := 0; i < n; i++ {
			at := rng.Float64() * 5
			amt := 1 + rng.Float64()*100
			total += amt
			if at > maxArrival {
				maxArrival = at
			}
			c.At(Time(at), func() {
				e.StartFlow("f", amt, []*Resource{r}, func(Time) { finished++ })
			})
		}
		c.Run()
		if finished != n {
			return false
		}
		// All work done by upper bound.
		return float64(c.Now()) <= maxArrival+total/10+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceValidation(t *testing.T) {
	c := New()
	e := NewEngine(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive capacity")
		}
	}()
	e.NewResource("bad", 0)
}

func TestNegativeFlowAmountPanics(t *testing.T) {
	c := New()
	e := NewEngine(c)
	r := e.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative amount")
		}
	}()
	e.StartFlow("bad", -1, []*Resource{r}, nil)
}

func TestCrossEngineResourcePanics(t *testing.T) {
	c := New()
	e1 := NewEngine(c)
	e2 := NewEngine(c)
	r := e1.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic using resource from another engine")
		}
	}()
	e2.StartFlow("bad", 1, []*Resource{r}, nil)
}

// Package simclock provides a deterministic discrete-event virtual clock and
// a flow-level, max-min fair-shared resource model. perfmodel's tests use it
// as an independent oracle for the closed-form transfer times.
//
// The clock advances only when events fire; there is no wall-clock dependency,
// which makes large-scale performance experiments (terabyte transfers, hours
// of simulated machine time) reproducible and instantaneous to run.
//
// Resources model bandwidth-like capacities (disk throughput, NIC links, an
// aggregate parallel-filesystem cap, CPU flop rates). A Flow consumes one or
// more resources simultaneously; its instantaneous rate is the max-min fair
// share across every resource it traverses, recomputed whenever any flow
// starts or finishes. This is the standard flow-level approximation used to
// study transfer-bound systems, and it is the regime the DOoC paper's
// out-of-core SpMV operates in.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual time in seconds.
type Time float64

// event is a scheduled callback. Events with equal times fire in scheduling
// order (seq) so runs are fully deterministic.
type event struct {
	at       Time
	seq      int64
	fn       func()
	canceled bool
	index    int // heap index, -1 when popped
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Clock is a discrete-event simulator. The zero value is not usable; call New.
type Clock struct {
	now    Time
	events eventHeap
	seq    int64
}

// New returns a clock positioned at virtual time zero with no pending events.
func New() *Clock {
	return &Clock{}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Handle identifies a scheduled event so it can be canceled.
type Handle struct{ e *event }

// Cancel removes the event from the schedule. Canceling an already-fired or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	if h.e != nil {
		h.e.canceled = true
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (c *Clock) At(t Time, fn func()) Handle {
	if t < c.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", t, c.now))
	}
	e := &event{at: t, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.events, e)
	return Handle{e}
}

// After schedules fn to run d seconds from now.
func (c *Clock) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.At(c.now+d, fn)
}

// Run fires events in time order, advancing the clock to each, until none
// remain.
func (c *Clock) Run() {
	for len(c.events) > 0 {
		e := heap.Pop(&c.events).(*event)
		if e.canceled {
			continue
		}
		c.now = e.at
		e.fn()
	}
}

// epsilon used when comparing remaining work and rates.
const eps = 1e-9

// almostZero reports whether v is indistinguishable from zero at model scale.
func almostZero(v float64) bool { return math.Abs(v) < eps }

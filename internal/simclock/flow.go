package simclock

import "fmt"

// Resource is a shared capacity (bytes/s, flops/s, messages/s...). Flows that
// traverse a resource divide its capacity max-min fairly.
type Resource struct {
	name     string
	capacity float64
	flows    []*Flow
	eng      *Engine
}

// Flow is a unit of work (a transfer, a compute kernel) that consumes one or
// more resources until `remaining` units have been processed.
type Flow struct {
	label      string
	remaining  float64
	rate       float64
	resources  []*Resource
	onDone     func(t Time)
	lastUpdate Time
	doneEvent  Handle
	finished   bool

	// frozen is scratch state for the max-min computation.
	frozen bool
}

// Engine couples a Clock with a set of resources and active flows and keeps
// the max-min fair allocation up to date as flows start and finish.
type Engine struct {
	clock     *Clock
	resources []*Resource
	flows     []*Flow
}

// NewEngine returns an Engine driving flows on the given clock.
func NewEngine(clock *Clock) *Engine {
	return &Engine{clock: clock}
}

// NewResource registers a resource with the given capacity (units/s).
// Capacity must be positive.
func (e *Engine) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simclock: resource %q capacity %v must be positive", name, capacity))
	}
	r := &Resource{name: name, capacity: capacity, eng: e}
	e.resources = append(e.resources, r)
	return r
}

// StartFlow begins a flow of `amount` units across the given resources.
// onDone (may be nil) fires at the flow's virtual completion time. A flow
// with no resources or zero amount completes after zero simulated seconds
// (via an immediate event, preserving causal ordering).
func (e *Engine) StartFlow(label string, amount float64, resources []*Resource, onDone func(t Time)) *Flow {
	if amount < 0 {
		panic(fmt.Sprintf("simclock: flow %q negative amount %v", label, amount))
	}
	f := &Flow{
		label:      label,
		remaining:  amount,
		resources:  append([]*Resource(nil), resources...),
		onDone:     onDone,
		lastUpdate: e.clock.Now(),
	}
	for _, r := range f.resources {
		if r.eng != e {
			panic(fmt.Sprintf("simclock: flow %q uses resource %q from another engine", label, r.name))
		}
	}
	if almostZero(amount) || len(f.resources) == 0 {
		// Instant completion, but still via the event queue so callbacks
		// observe a consistent ordering.
		f.finished = true
		e.clock.After(0, func() {
			if f.onDone != nil {
				f.onDone(e.clock.Now())
			}
		})
		return f
	}
	e.flows = append(e.flows, f)
	for _, r := range f.resources {
		r.flows = append(r.flows, f)
	}
	e.reallocate()
	return f
}

// settle accrues progress on every active flow up to the current time.
func (e *Engine) settle() {
	now := e.clock.Now()
	for _, f := range e.flows {
		dt := float64(now - f.lastUpdate)
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.lastUpdate = now
	}
}

// detach removes f from the engine and resource membership lists.
func (e *Engine) detach(f *Flow) {
	f.doneEvent.Cancel()
	for _, r := range f.resources {
		for i, g := range r.flows {
			if g == f {
				r.flows = append(r.flows[:i], r.flows[i+1:]...)
				break
			}
		}
	}
	for i, g := range e.flows {
		if g == f {
			e.flows = append(e.flows[:i], e.flows[i+1:]...)
			break
		}
	}
}

// reallocate recomputes max-min fair rates for all active flows and
// reschedules completion events. Called whenever flow membership changes.
func (e *Engine) reallocate() {
	e.settle()

	// Progressive filling (max-min fairness): repeatedly find the resource
	// whose per-unfrozen-flow headroom is smallest, freeze its flows at that
	// share, and continue until every flow is frozen.
	for _, f := range e.flows {
		f.frozen = false
		f.rate = 0
	}
	headroom := make(map[*Resource]float64, len(e.resources))
	unfrozen := make(map[*Resource]int, len(e.resources))
	active := 0
	for _, r := range e.resources {
		if len(r.flows) == 0 {
			continue
		}
		headroom[r] = r.capacity
		unfrozen[r] = len(r.flows)
		active++
	}
	remainingFlows := len(e.flows)
	for remainingFlows > 0 {
		var bottleneck *Resource
		best := 0.0
		for _, r := range e.resources {
			n, ok := unfrozen[r]
			if !ok || n == 0 {
				continue
			}
			share := headroom[r] / float64(n)
			if bottleneck == nil || share < best {
				bottleneck = r
				best = share
			}
		}
		if bottleneck == nil {
			// Should not happen: every flow traverses >=1 resource.
			panic("simclock: no bottleneck found with flows remaining")
		}
		for _, f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.frozen = true
			f.rate = best
			remainingFlows--
			for _, r := range f.resources {
				if _, ok := unfrozen[r]; ok {
					unfrozen[r]--
					headroom[r] -= best
					if headroom[r] < 0 {
						headroom[r] = 0
					}
				}
			}
		}
		delete(unfrozen, bottleneck)
	}

	// Reschedule completion events.
	now := e.clock.Now()
	for _, f := range e.flows {
		f.doneEvent.Cancel()
		if almostZero(f.remaining) {
			f.doneEvent = e.clock.At(now, e.finisher(f))
			continue
		}
		if almostZero(f.rate) {
			// Starved flow: no completion event until rates change.
			continue
		}
		f.doneEvent = e.clock.At(now+Time(f.remaining/f.rate), e.finisher(f))
	}
}

// finisher returns the completion callback for f.
func (e *Engine) finisher(f *Flow) func() {
	return func() {
		if f.finished {
			return
		}
		e.settle()
		if !almostZero(f.remaining) {
			// Rate changed after scheduling; reallocate rescheduled us, so
			// this event should have been canceled. Guard anyway.
			return
		}
		e.detach(f)
		f.finished = true
		f.rate = 0
		e.reallocate()
		if f.onDone != nil {
			f.onDone(e.clock.Now())
		}
	}
}

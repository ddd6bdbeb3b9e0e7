package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"time"

	"dooc/internal/obs"
)

// pidBench is the trace process the benchmark's own spans go to, above the
// pids the program uses for nodes and subsystems.
const pidBench = 9100

// span is one complete trace event, times in µs on the tracer's timebase.
type span struct {
	name, cat  string
	pid        int
	start, end float64
	traceID    string
}

func (s span) dur() float64 { return s.end - s.start }

func (s span) isTask() bool {
	return s.pid < pidBench && (s.cat == "multiply" || s.cat == "multiply-part" || s.cat == "sum")
}
func (s span) isGrant() bool { return s.cat == "storage" && strings.HasPrefix(s.name, "grant ") }
func (s span) isIO() bool {
	return s.cat == "storage" && (strings.HasPrefix(s.name, "load ") || strings.HasPrefix(s.name, "spill "))
}

// parseSpans decodes the complete ("X") events of a Chrome trace, sorted by
// start time.
func parseSpans(data []byte) ([]span, error) {
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Args struct {
				TraceID string `json:"trace_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	out := make([]span, 0, len(f.TraceEvents))
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		out = append(out, span{name: ev.Name, cat: ev.Cat, pid: ev.Pid,
			start: ev.Ts, end: ev.Ts + ev.Dur, traceID: ev.Args.TraceID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

// tracerSpans snapshots an in-process tracer.
func tracerSpans(t *obs.Tracer) ([]span, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return parseSpans(buf.Bytes())
}

// benchSpan records one of the benchmark's own spans around a call into
// the program, on the program's tracer so both share one timebase.
func benchSpan(t *obs.Tracer, name string, start, end time.Time) {
	t.Span(name, "perfbench", pidBench, 0, start, end, nil)
}

// benchSpans returns the benchmark's own spans of one name, those inside
// within when it is non-nil.
func benchSpans(spans []span, name string, within *span) []span {
	var out []span
	for _, s := range spans {
		if s.pid == pidBench && s.name == name && (within == nil || s.start >= within.start && s.end <= within.end) {
			out = append(out, s)
		}
	}
	return out
}

// engineTotals accumulates, over engine call windows, the exclusive split of
// each window and the raw span sums inside it (all µs).
type engineTotals struct {
	compute, leaseWait, ioExposed, idle, overhead float64
	taskBusy, queued, grants, ioBusy, sums        float64
	multiplies                                    []float64
	windows                                       float64
}

// spansIn returns the spans starting inside [s, e), given spans sorted by
// start.
func spansIn(spans []span, s, e float64) []span {
	lo := sort.Search(len(spans), func(i int) bool { return spans[i].start >= s })
	hi := sort.Search(len(spans), func(i int) bool { return spans[i].start >= e })
	return spans[lo:hi]
}

// addWindow splits one engine call window [s, e) exclusively, so the parts
// sum to e-s:
//
//   - overhead: outside the envelope of the window's task spans (program
//     build, array create, collect, delete);
//   - compute: some task running that is not waiting on a lease grant (a
//     node's pending grants are charged to its running tasks, one each);
//   - leaseWait: tasks running, all of them waiting on grants;
//   - ioExposed: no task running, a load or spill in flight;
//   - idle: inside the envelope, nothing of the above.
//
// keep filters the spans that belong to this window (nil keeps all).
func (t *engineTotals) addWindow(spans []span, s, e float64, keep func(span) bool) {
	t.windows += e - s
	type edge struct {
		at         float64
		node, kind int // kind 0 task, 1 grant, 2 io
		d          int
	}
	var edges []edge
	envS, envE := e, s
	for _, sp := range spansIn(spans, s, e) {
		if keep != nil && !keep(sp) {
			continue
		}
		end := math.Min(sp.end, e)
		switch {
		case sp.isTask():
			envS, envE = math.Min(envS, sp.start), math.Max(envE, end)
			t.taskBusy += end - sp.start
			if sp.cat == "sum" {
				t.sums += end - sp.start
			} else {
				t.multiplies = append(t.multiplies, end-sp.start)
			}
			edges = append(edges, edge{sp.start, sp.pid, 0, 1}, edge{end, sp.pid, 0, -1})
		case sp.cat == "queued":
			t.queued += end - sp.start
		case sp.isGrant():
			t.grants += end - sp.start
			edges = append(edges, edge{sp.start, sp.pid, 1, 1}, edge{end, sp.pid, 1, -1})
		case sp.isIO():
			t.ioBusy += end - sp.start
			edges = append(edges, edge{sp.start, sp.pid, 2, 1}, edge{end, sp.pid, 2, -1})
		}
	}
	if envE <= envS {
		t.overhead += e - s
		return
	}
	t.overhead += (e - s) - (envE - envS)
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	running := map[int]int{}
	granting := map[int]int{}
	io := 0
	prev := envS
	for _, ed := range edges {
		at := math.Max(math.Min(ed.at, envE), envS)
		if at > prev {
			free, run := 0, 0
			for n, r := range running {
				run += r
				free += max(r-granting[n], 0)
			}
			d := at - prev
			switch {
			case free > 0:
				t.compute += d
			case run > 0:
				t.leaseWait += d
			case io > 0:
				t.ioExposed += d
			default:
				t.idle += d
			}
			prev = at
		}
		switch ed.kind {
		case 0:
			running[ed.node] += ed.d
		case 1:
			granting[ed.node] += ed.d
		case 2:
			io += ed.d
		}
	}
	if envE > prev {
		t.idle += envE - prev
	}
}

// bucketsMs converts the exclusive split to ms totals for makeSplit.
func (t *engineTotals) bucketsMs(into map[string]float64) {
	into["engine_compute"] += t.compute / 1e3
	into["lease_wait"] += t.leaseWait / 1e3
	into["io_exposed"] += t.ioExposed / 1e3
	into["engine_idle"] += t.idle / 1e3
	into["run_overhead"] += t.overhead / 1e3
}

// engineMetrics fills the core and storage-span metrics from the engine
// windows of a traced phase: iters SpMV iterations in calls engine calls.
func engineMetrics(into map[string]float64, t *engineTotals, iters, calls float64, callMs []float64) {
	lanes := float64(nodes * workersPerNode)
	into["core.worker_busy_ratio"] = t.taskBusy / (lanes * t.windows)
	into["core.queue_wait_ms_per_iter"] = t.queued / 1e3 / iters
	into["core.multiply_ms_p50"] = median(t.multiplies) / 1e3
	into["core.sum_ms_per_iter"] = t.sums / 1e3 / iters
	into["core.apply_ms_p50"] = median(callMs)
	into["core.run_overhead_ms_per_apply"] = (t.windows - t.compute - t.leaseWait) / 1e3 / calls
	into["storage.io_busy_ms_per_iter"] = t.ioBusy / 1e3 / iters
	into["storage.lease_wait_ms_per_iter"] = t.grants / 1e3 / iters
}

// runtimeMetrics fills the Go runtime metrics from two snapshots.
func runtimeMetrics(into map[string]float64, a, b memSnap, iters float64) {
	into["runtime.alloc_mb_per_iter"] = float64(b.totalAlloc-a.totalAlloc) / 1e6 / iters
	into["runtime.gc_pause_ms_per_iter"] = float64(b.pauseNs-a.pauseNs) / 1e6 / iters
}

// zeroAbsent sets every per-layer metric a workload does not exercise to 0,
// the value a bypassed layer is predicted to keep.
func zeroAbsent(into map[string]float64) {
	for _, l := range layerMetrics {
		if _, ok := into[l.name]; !ok {
			into[l.name] = 0
		}
	}
}

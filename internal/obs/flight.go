package obs

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"
)

// FlightEvent is one structured entry in a job's flight recorder: a
// lifecycle transition, a span reference, or a retry/fault annotation. The
// hex-encoded causal IDs make a snapshot self-contained — it can be
// journaled, recovered after a crash, and rendered as a Chrome trace without
// the process that recorded it.
type FlightEvent struct {
	Seq    uint64      `json:"seq"`
	At     time.Time   `json:"at"`
	Kind   string      `json:"kind"` // "transition", "span", "retry", "note"
	Name   string      `json:"name"`
	Trace  string      `json:"trace_id,omitempty"`
	Span   string      `json:"span_id,omitempty"`
	Parent string      `json:"parent_id,omitempty"`
	Attrs  FlightAttrs `json:"attrs,omitempty"`
}

// FlightAttrs are a FlightEvent's free-form annotations. The named type
// exists for its gob form: gob sizes a plain map from the count it reads
// before any entry, so one forged journal record could force an allocation
// of any size. This form checks every count and length against the bytes
// actually present first.
type FlightAttrs map[string]string

// errForgedAttrs reports a FlightAttrs encoding whose counts or lengths do
// not fit the bytes that carry it.
var errForgedAttrs = errors.New("obs: flight attrs encoding overruns its bytes")

// GobEncode writes the pair count, then each key and value, all as
// uvarint-prefixed lengths.
func (a FlightAttrs) GobEncode() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(a)))
	for k, v := range a {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b, nil
}

// GobDecode reverses GobEncode. A pair count beyond what the remaining
// bytes could hold (two length bytes per pair at least), or a string length
// beyond the bytes left, is refused before anything is allocated for it.
func (a *FlightAttrs) GobDecode(b []byte) error {
	n, used := binary.Uvarint(b)
	if used <= 0 || n > uint64(len(b)-used)/2 {
		return errForgedAttrs
	}
	b = b[used:]
	next := func() (string, bool) {
		l, used := binary.Uvarint(b)
		if used <= 0 || l > uint64(len(b)-used) {
			return "", false
		}
		s := string(b[used : used+int(l)])
		b = b[used+int(l):]
		return s, true
	}
	m := make(FlightAttrs, n)
	for i := uint64(0); i < n; i++ {
		k, ok := next()
		if !ok {
			return errForgedAttrs
		}
		v, ok := next()
		if !ok {
			return errForgedAttrs
		}
		m[k] = v
	}
	if len(b) != 0 {
		return errForgedAttrs
	}
	*a = m
	return nil
}

// DefaultFlightEvents bounds a flight recorder when no capacity is given.
const DefaultFlightEvents = 64

// FlightRecorder is a bounded ring of FlightEvents. When full, the oldest
// events are overwritten and counted as dropped — a job can never grow its
// journal records without bound. A nil *FlightRecorder discards everything.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []FlightEvent
	start   int // index of oldest event
	n       int // live events
	seq     uint64
	dropped uint64
}

// NewFlightRecorder returns a recorder bounded to capacity events
// (DefaultFlightEvents when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{ring: make([]FlightEvent, 0, capacity)}
}

// Record appends an event, evicting the oldest when the ring is full.
func (r *FlightRecorder) Record(kind, name string, sc SpanContext, parent SpanID, attrs map[string]string) {
	if r == nil {
		return
	}
	ev := FlightEvent{At: time.Now(), Kind: kind, Name: name, Attrs: attrs}
	if !sc.Trace.IsZero() {
		ev.Trace = sc.Trace.String()
	}
	if !sc.Span.IsZero() {
		ev.Span = sc.Span.String()
	}
	if !parent.IsZero() {
		ev.Parent = parent.String()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if r.n < cap(r.ring) {
		r.ring = append(r.ring, FlightEvent{})
		r.ring[(r.start+r.n)%cap(r.ring)] = ev
		r.n++
	} else {
		r.ring[r.start] = ev
		r.start = (r.start + 1) % cap(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns the live events oldest-first.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(r.start+i)%cap(r.ring)])
	}
	return out
}

// Len returns the number of live events.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events the ring has overwritten.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Preload seeds the ring with recovered events (oldest-first), keeping the
// sequence counter ahead of them so post-recovery events sort after. Events
// beyond capacity drop from the front, as they would have in flight.
func (r *FlightRecorder) Preload(events []FlightEvent) {
	if r == nil || len(events) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range events {
		if r.n < cap(r.ring) {
			r.ring = append(r.ring, FlightEvent{})
			r.ring[(r.start+r.n)%cap(r.ring)] = ev
			r.n++
		} else {
			r.ring[r.start] = ev
			r.start = (r.start + 1) % cap(r.ring)
			r.dropped++
		}
		if ev.Seq > r.seq {
			r.seq = ev.Seq
		}
	}
}

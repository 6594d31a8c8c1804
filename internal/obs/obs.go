// Package obs is the repository's zero-dependency observability layer:
// hierarchical wall-clock spans exported as Chrome trace_event JSON
// (chrome://tracing / Perfetto), a registry of named metric instruments
// (counters, gauges, time/cost histograms), and an injectable clock so
// every output can be made deterministic in tests.
//
// The unit threaded through the pipeline is *Obs: a handle bundling a
// tracer lane, a parent span, and a metrics registry. The nil *Obs is
// the disabled mode — every method on it (and on the nil *Span and nil
// instruments it hands out) is a no-op that performs zero allocations,
// so hot paths like the preprocessor carry their hooks unconditionally.
//
// Spans are recorded lock-free: each lane is owned by one goroutine
// (par.Each derives one lane per call via Lane), and completed spans
// append to the owning lane without synchronization. Export happens
// after the pool drains.
package obs

import (
	"log/slog"
	"time"
)

// Obs is the observability handle threaded through the pipeline: where
// new spans attach (lane + parent), where metrics register, and which
// structured logger nested work inherits. The nil *Obs disables
// everything at zero cost.
type Obs struct {
	tracer *Tracer
	reg    *Registry
	lane   *Lane
	parent int64
	log    *slog.Logger
}

// New returns a root handle over the given tracer and/or registry.
// Either may be nil; if both are nil the handle itself is nil (fully
// disabled). With a tracer, the root records into a lane named "main".
func New(t *Tracer, r *Registry) *Obs {
	if t == nil && r == nil {
		return nil
	}
	o := &Obs{tracer: t, reg: r}
	if t != nil {
		o.lane = t.newLane(PidWall, "main")
	}
	return o
}

// Lane derives a handle recording into a fresh wall-clock lane (one per
// goroutine's unit of work). Parentage resets: spans on the new lane are roots.
// Safe on a nil receiver; without a tracer it returns the handle itself.
func (o *Obs) Lane(name string) *Obs {
	if o == nil || o.tracer == nil {
		return o
	}
	return &Obs{tracer: o.tracer, reg: o.reg, lane: o.tracer.newLane(PidWall, name), log: o.log}
}

// WithLogger returns a handle carrying l: Logger() hands it back with
// span correlation, and child handles (via Span.Obs and Lane) inherit
// it. A nil l returns the handle unchanged; attaching a logger to the
// nil (disabled) handle yields a logging-only handle — spans and
// metrics on it stay no-ops.
func (o *Obs) WithLogger(l *slog.Logger) *Obs {
	if l == nil {
		return o
	}
	if o == nil {
		return &Obs{log: l}
	}
	cp := *o
	cp.log = l
	return &cp
}

// Logger returns the handle's structured logger, annotated with the
// current span ID ("span" attribute) when the handle sits under a
// recorded span — log lines correlate back to the trace. Safe on a nil
// receiver: disabled handles return the discard logger, so callers can
// log unconditionally.
func (o *Obs) Logger() *slog.Logger {
	if o == nil || o.log == nil {
		return Discard()
	}
	if o.parent != 0 {
		return o.log.With(slog.Int64("span", o.parent))
	}
	return o.log
}

// SealLane seals the handle's trace lane (see Lane.Seal): the caller
// promises no further spans will be recorded through this handle or its
// descendants, which makes the lane exportable via Tracer.ExportSealed
// while other lanes are still recording. Safe on a nil receiver.
func (o *Obs) SealLane() {
	if o == nil {
		return
	}
	o.lane.Seal()
}

// VirtualLane returns a fresh virtual-cost lane for explicit-timestamp
// Emit calls, or nil without a tracer. Safe on a nil receiver.
func (o *Obs) VirtualLane(name string) *Lane {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.newLane(PidVirtual, name)
}

// Metrics exposes the handle's registry (nil when disabled).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter resolves a named counter, the nil no-op instrument when
// disabled. Resolve once per run and Add on the hot path.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Gauge resolves a named gauge (nil no-op when disabled).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name)
}

// Observe records one value into the named histogram. Safe on nil.
func (o *Obs) Observe(name string, v float64) {
	if o == nil {
		return
	}
	o.reg.Histogram(name).Observe(v)
}

// ObserveMs records a duration, in milliseconds, into the named
// histogram. Safe on nil.
func (o *Obs) ObserveMs(name string, d time.Duration) {
	if o == nil {
		return
	}
	o.reg.Histogram(name).ObserveDuration(d)
}

// ObserveMsEx records a duration into the named histogram with sp's
// span ID as the bucket exemplar, linking the metric back to the trace
// span that exhibited the latency. Safe on nil (either receiver).
func (o *Obs) ObserveMsEx(name string, d time.Duration, sp *Span) {
	if o == nil {
		return
	}
	o.reg.Histogram(name).ObserveEx(float64(d)/1e6, sp.ID())
}

// Span is one in-progress span. The nil *Span is a no-op. A span is
// recorded onto its lane when End is called; all methods must be called
// from the lane's owning goroutine.
type Span struct {
	o      *Obs // child handle, parented at this span
	lane   *Lane
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  []Attr
}

// Start opens a span named name under the handle's current parent. Safe
// on a nil receiver (returns the nil no-op span). Pass only constant
// names from hot paths; attach dynamic data via SetStr/SetInt, which are
// free when the span is nil.
func (o *Obs) Start(name string) *Span {
	if o == nil {
		return nil
	}
	sp := &Span{name: name, parent: o.parent}
	if o.tracer != nil && o.lane != nil {
		sp.lane = o.lane
		sp.id = o.tracer.ids.Add(1)
		sp.start = o.tracer.clock.Now()
	}
	childParent := sp.id
	if sp.id == 0 {
		// Metrics-only handle: no span identity; callees keep the
		// inherited parent so a later tracer sees a consistent chain.
		childParent = o.parent
	}
	sp.o = &Obs{tracer: o.tracer, reg: o.reg, lane: o.lane, parent: childParent, log: o.log}
	return sp
}

// Obs returns the handle for work nested under this span, so callees'
// spans become children. Safe on a nil receiver (returns nil).
func (sp *Span) Obs() *Obs {
	if sp == nil {
		return nil
	}
	return sp.o
}

// ID returns the span's trace-unique ID, or 0 when the span is nil or
// not recorded (no tracer). Metric exemplars and request logs use it to
// point back into the trace. Safe on a nil receiver.
func (sp *Span) ID() int64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// SetStr attaches a string attribute. Safe on a nil receiver.
func (sp *Span) SetStr(key, val string) {
	if sp == nil || sp.lane == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Str: val, IsStr: true})
}

// SetInt attaches an integer attribute. Safe on a nil receiver.
func (sp *Span) SetInt(key string, val int64) {
	if sp == nil || sp.lane == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Int: val})
}

// End closes the span and records it onto its lane. Safe on a nil
// receiver.
func (sp *Span) End() {
	if sp == nil || sp.lane == nil {
		return
	}
	t := sp.lane.t
	now := t.clock.Now()
	sp.lane.events = append(sp.lane.events, event{
		id:     sp.id,
		parent: sp.parent,
		name:   sp.name,
		ts:     sp.start.Sub(t.epoch),
		dur:    now.Sub(sp.start),
		attrs:  sp.attrs,
	})
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace process IDs: wall-clock lanes (one per unit of work a pool runs,
// such as a subject or a translation unit, or per request) live in
// PidWall; virtual-cost lanes (one per subject×mode, phase bars laid out
// on the simulated timeline) live in PidVirtual. chrome://tracing and
// Perfetto render them as two separate processes.
const (
	PidWall    = 1
	PidVirtual = 2
)

// Tracer collects spans into per-goroutine lanes and exports them as
// Chrome trace_event JSON. Lane creation takes a lock; recording into a
// lane is lock-free because each lane is owned by exactly one goroutine.
// Export must only be called after all recording goroutines have
// finished (e.g. after par.Each returns).
type Tracer struct {
	clock Clock
	epoch time.Time
	ids   atomic.Int64

	mu       sync.Mutex
	lanes    []*Lane
	nextWall int
	nextVirt int

	// The flight recorder: sealed lanes in seal order, bounded by
	// flightCap (0 = unbounded). When a Seal pushes the ring past the
	// cap the oldest sealed lane is dropped and evicted incremented —
	// a long-lived daemon keeps the last N requests' traces for
	// post-hoc "what just happened" debugging without growing forever.
	sealedOrder []*Lane
	flightCap   int
	evicted     uint64
	evictions   *Counter // registry mirror, set by AttachMetrics
}

// NewTracer returns a tracer reading time from clock (RealClock for
// production, a VirtualClock for byte-stable tests). The first reading
// becomes the trace epoch: all wall timestamps are relative to it.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = RealClock()
	}
	return &Tracer{clock: clock, epoch: clock.Now()}
}

// Lane is one trace timeline (a "thread" in the Chrome trace model).
// All recording methods must be called from the lane's owning goroutine.
type Lane struct {
	t      *Tracer
	pid    int
	tid    int
	name   string
	events []event
	sealed bool
}

// event is one completed span, recorded at End (or Emit) time.
type event struct {
	id     int64
	parent int64
	name   string
	ts     time.Duration // offset from the trace epoch (wall) or zero (virtual)
	dur    time.Duration
	attrs  []Attr
}

// Attr is one span attribute: a string or integer value under a key.
// A typed pair (rather than any) keeps attribute setting allocation-free.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// newLane registers a lane under the given pid.
func (t *Tracer) newLane(pid int, name string) *Lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	var tid int
	if pid == PidVirtual {
		tid = t.nextVirt
		t.nextVirt++
	} else {
		tid = t.nextWall
		t.nextWall++
	}
	l := &Lane{t: t, pid: pid, tid: tid, name: name}
	t.lanes = append(t.lanes, l)
	return l
}

// Emit records one explicit-timestamp span on the lane — used for
// virtual-cost lanes, whose timeline is simulated time rather than the
// tracer's clock. Safe on a nil receiver.
func (l *Lane) Emit(name string, ts, dur time.Duration) {
	if l == nil {
		return
	}
	l.events = append(l.events, event{id: l.t.ids.Add(1), name: name, ts: ts, dur: dur})
}

// Seal marks the lane complete: its owner promises not to record into
// it again, which makes it safe to export while other lanes are still
// recording. Call it from the owning goroutine after the last End/Emit.
// Sealing enters the lane into the flight-recorder ring and enforces its
// retention cap (see SetSealedRetention): at capacity, the oldest sealed
// lane is dropped and the eviction counter incremented. Sealing an
// already-sealed lane is a no-op. Safe on a nil receiver.
func (l *Lane) Seal() {
	if l == nil {
		return
	}
	t := l.t
	var evictions *Counter
	t.mu.Lock()
	if !l.sealed {
		l.sealed = true
		t.sealedOrder = append(t.sealedOrder, l)
		if t.flightCap > 0 && len(t.sealedOrder) > t.flightCap {
			victim := t.sealedOrder[0]
			t.sealedOrder = t.sealedOrder[1:]
			t.evicted++
			evictions = t.evictions
			for i, ln := range t.lanes {
				if ln == victim {
					t.lanes = append(t.lanes[:i], t.lanes[i+1:]...)
					break
				}
			}
		}
	}
	t.mu.Unlock()
	// Incremented outside the tracer lock; Counter.Add is atomic.
	evictions.Add(1)
}

// SetSealedRetention caps the flight recorder: how many sealed lanes the
// tracer retains. When a Seal pushes the ring past n, the oldest sealed
// lane is dropped (seal order, not creation order). Long-lived servers
// that open one lane per request use this to bound trace memory. n <= 0
// (the default) retains everything.
func (t *Tracer) SetSealedRetention(n int) {
	t.mu.Lock()
	t.flightCap = n
	t.mu.Unlock()
}

// AttachMetrics mirrors flight-recorder evictions into the registry's
// "obs.flight.evicted" counter so a /metrics snapshot shows how much
// trace history has been dropped. Safe with a nil registry.
func (t *Tracer) AttachMetrics(r *Registry) {
	t.mu.Lock()
	t.evictions = r.Counter("obs.flight.evicted")
	t.mu.Unlock()
}

// FlightStats is the flight recorder's state: how many sealed lanes are
// retained, the retention cap (0 = unbounded), and how many sealed lanes
// have been evicted since the tracer was created.
type FlightStats struct {
	Sealed  int    `json:"sealed"`
	Cap     int    `json:"cap"`
	Evicted uint64 `json:"evicted"`
}

// FlightStats snapshots the flight recorder's state.
func (t *Tracer) FlightStats() FlightStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return FlightStats{Sealed: len(t.sealedOrder), Cap: t.flightCap, Evicted: t.evicted}
}

// Export writes the trace as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto. Lanes are emitted as thread-name
// metadata sorted by (pid, tid); span events are sorted by span ID,
// which equals start order for a single-lane trace and is a stable total
// order for a parallel one.
//
// Export must only be called after all recording goroutines have
// finished. A live server that still has lanes recording should use
// ExportSealed instead.
func (t *Tracer) Export(w io.Writer) error {
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	t.mu.Unlock()
	return t.exportLanes(w, lanes)
}

// ExportSealed writes the flight recorder — all retained sealed lanes —
// as Chrome trace_event JSON. Sealed lanes no longer record, so this is
// safe to call at any time — concurrently with goroutines still
// recording into unsealed lanes — which is what lets a long-lived
// daemon serve its trace over HTTP mid-run.
func (t *Tracer) ExportSealed(w io.Writer) error {
	return t.ExportSealedLast(w, 0)
}

// ExportSealedLast writes the most recent n sealed lanes (by seal
// order); n <= 0 exports the whole flight recorder.
func (t *Tracer) ExportSealedLast(w io.Writer, n int) error {
	t.mu.Lock()
	sealed := t.sealedOrder
	if n > 0 && len(sealed) > n {
		sealed = sealed[len(sealed)-n:]
	}
	lanes := append([]*Lane(nil), sealed...)
	t.mu.Unlock()
	return t.exportLanes(w, lanes)
}

func (t *Tracer) exportLanes(w io.Writer, lanes []*Lane) error {
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})

	var all []event
	byLane := map[int64]*Lane{}
	for _, l := range lanes {
		for _, ev := range l.events {
			byLane[ev.id] = l
			all = append(all, ev)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })

	bw := &errWriter{w: w}
	bw.puts(`{"traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.puts(",\n")
		} else {
			bw.puts("\n")
		}
		first = false
	}
	seenPid := map[int]bool{}
	for _, l := range lanes {
		if !seenPid[l.pid] {
			seenPid[l.pid] = true
			pname := "wall clock"
			if l.pid == PidVirtual {
				pname = "virtual phases"
			}
			comma()
			fmt.Fprintf(bw, `{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%s}}`,
				l.pid, jsonStr(pname))
		}
		comma()
		fmt.Fprintf(bw, `{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
			l.pid, l.tid, jsonStr(l.name))
	}
	for _, ev := range all {
		l := byLane[ev.id]
		comma()
		fmt.Fprintf(bw, `{"ph":"X","name":%s,"ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d`,
			jsonStr(ev.name), float64(ev.ts)/1e3, float64(ev.dur)/1e3, l.pid, l.tid)
		if ev.parent != 0 || len(ev.attrs) > 0 {
			bw.puts(`,"args":{`)
			argFirst := true
			arg := func(k string) {
				if !argFirst {
					bw.puts(",")
				}
				argFirst = false
				bw.puts(jsonStr(k) + ":")
			}
			if ev.parent != 0 {
				arg("parent")
				bw.puts(strconv.FormatInt(ev.parent, 10))
			}
			for _, a := range ev.attrs {
				arg(a.Key)
				if a.IsStr {
					bw.puts(jsonStr(a.Str))
				} else {
					bw.puts(strconv.FormatInt(a.Int, 10))
				}
			}
			bw.puts("}")
		}
		bw.puts("}")
	}
	bw.puts("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.err
}

// jsonStr quotes s as a JSON string (ASCII-safe; our names and attribute
// values are code-controlled identifiers and paths).
func jsonStr(s string) string { return strconv.Quote(s) }

// errWriter folds write errors so export code can stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	_, err := e.w.Write(p)
	e.err = err
	return len(p), nil
}

func (e *errWriter) puts(s string) { io.WriteString(e, s) }

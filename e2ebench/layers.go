package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// spanStat sums one span name's spans: how many, their total duration
// and their self time (duration minus the parts their child spans on
// the same lane cover), in milliseconds.
type spanStat struct {
	count           int
	totalMs, selfMs float64
}

// traceEvent is one complete ("X") event of an obs Chrome trace.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs since the trace epoch
	Dur  float64 `json:"dur"` // µs
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// spanStats reads a trace written by obs.Tracer.Export and sums the
// wall-clock spans that start inside the bench.window span, keyed by
// span name and, for direct children, also by "parent/name".
func spanStats(path string) (map[string]*spanStat, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &tr); err != nil {
		return nil, fmt.Errorf("trace %s: %v", path, err)
	}
	from, to := -1.0, -1.0
	lanes := map[[2]int][]traceEvent{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Pid != obs.PidWall {
			continue
		}
		if ev.Name == "bench.window" {
			from, to = ev.Ts, ev.Ts+ev.Dur
		}
		key := [2]int{ev.Pid, ev.Tid}
		lanes[key] = append(lanes[key], ev)
	}
	if from < 0 {
		return nil, fmt.Errorf("trace %s has no bench.window span", path)
	}
	const eps = 0.002 // µs; exported times carry ns resolution
	stats := map[string]*spanStat{}
	stat := func(name string) *spanStat {
		s := stats[name]
		if s == nil {
			s = &spanStat{}
			stats[name] = s
		}
		return s
	}
	type open struct {
		ev       traceEvent
		children float64
	}
	for _, evs := range lanes {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []*open
		finish := func(o *open) {
			if o.ev.Ts < from-eps || o.ev.Ts > to+eps {
				return
			}
			s := stat(o.ev.Name)
			s.count++
			s.totalMs += o.ev.Dur / 1e3
			s.selfMs += (o.ev.Dur - o.children) / 1e3
		}
		for _, ev := range evs {
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if ev.Ts+ev.Dur <= top.ev.Ts+top.ev.Dur+eps {
					break
				}
				finish(top)
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.children += ev.Dur
				if ev.Ts >= from-eps && ev.Ts <= to+eps {
					s := stat(parent.ev.Name + "/" + ev.Name)
					s.count++
					s.totalMs += ev.Dur / 1e3
				}
			}
			stack = append(stack, &open{ev: ev})
		}
		for i := len(stack) - 1; i >= 0; i-- {
			finish(stack[i])
		}
	}
	return stats, nil
}

// histQuantile is the count-weighted mean, across snaps, of a
// histogram's quantile q picks; exact for a single registry.
func histQuantile(snaps []obs.Snapshot, name string, q func(obs.HistSnapshot) float64) float64 {
	var sum, n float64
	for _, s := range snaps {
		h, ok := s.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		sum += q(h) * float64(h.Count)
		n += float64(h.Count)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// virtualPrefix is how many operations devcycle.cycle_virtual_ms
// averages: a fixed prefix of the seeded script, so the value is exact
// for a seed however far the run got.
const virtualPrefix = 100

// perLayer derives the per-layer metrics of a traced run from its
// trace, its registries' counters over the measurement window, and what
// the benchmark timed itself. Every workload reports every metric; a
// layer the workload does not exercise reads 0. Times and counts are
// per measured round, so they compare with wall_s and do not grow when
// a faster program fits more rounds into the window.
func perLayer(m *measurement, tracePath string) (map[string]metric, error) {
	spans, err := spanStats(tracePath)
	if err != nil {
		return nil, err
	}
	w := m.win
	rounds := float64(len(m.rounds))
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	span := func(name string) *spanStat {
		if s := spans[name]; s != nil {
			return &spanStat{count: s.count, totalMs: s.totalMs / rounds, selfMs: s.selfMs / rounds}
		}
		return &spanStat{}
	}
	spanCount := func(name string) float64 { return float64(span(name).count) / rounds }
	count := func(name string) float64 { return float64(w.counters[name]) / rounds }
	p50 := func(h obs.HistSnapshot) float64 { return h.P50 }
	p95 := func(h obs.HistSnapshot) float64 { return h.P95 }

	// Frontend: cpp/preprocessor (which includes cpp/lexer's time),
	// cpp/parser, cpp/sema.
	put("preprocessor.self_ms", "ms", span("preprocess").selfMs)
	put("preprocessor.runs", "count", spanCount("preprocess"))
	put("preprocessor.tokens", "count", count("preprocessor.tokens"))
	put("preprocessor.files", "count", count("preprocessor.files"))
	put("parser.self_ms", "ms", span("parse").selfMs)
	put("parser.units", "count", count("parser.units"))
	put("sema.self_ms", "ms", span("sema").selfMs)
	put("sema.units", "count", count("sema.units"))
	put("sema.decls", "count", count("sema.decls"))

	// core (the substitution tool) and check (its safety gate).
	put("core.substitute_ms", "ms", span("substitute").totalMs)
	for _, phase := range []string{"frontend", "check", "analyze", "wrappers", "transform", "emit"} {
		put("core."+phase+"_ms", "ms", span("substitute/"+phase).totalMs)
	}
	put("core.runs", "count", count("substitute.runs"))
	put("check.tu_self_ms", "ms", span("check.tu").selfMs)
	put("check.tu_count", "count", spanCount("check.tu"))

	// compilesim and pch.
	put("compilesim.compile_self_ms", "ms", span("compile").selfMs)
	put("compilesim.compiles", "count", count("compilesim.compiles"))
	put("pch.build_self_ms", "ms", span("pch.build").selfMs)
	put("pch.builds", "count", count("pch.builds"))

	// devcycle and experiments.
	put("devcycle.prepare_ms", "ms", span("prepare").totalMs)
	put("devcycle.cycle_ms", "ms", span("cycle").totalMs)
	put("experiments.unattributed_ms", "ms", span("subject").selfMs+span("mode").selfMs)
	prefix := m.virtualMs
	if len(prefix) > virtualPrefix {
		prefix = prefix[:virtualPrefix]
	}
	var virt float64
	for _, v := range prefix {
		virt += v
	}
	put("devcycle.cycle_virtual_ms", "virtual_ms", ratio(virt, float64(len(prefix))))

	// buildcache and vfs.
	hits, misses := count("buildcache.tu.hits"), count("buildcache.tu.misses")
	put("buildcache.tu.hits", "count", hits)
	put("buildcache.tu.misses", "count", misses)
	put("buildcache.tu.hit_ratio", "ratio", ratio(hits, hits+misses))
	put("buildcache.token.hits", "count", count("buildcache.token.hits"))
	put("buildcache.token.misses", "count", count("buildcache.token.misses"))
	put("buildcache.singleflight.dedup", "count", count("buildcache.singleflight.dedup"))
	put("buildcache.evictions", "count", count("buildcache.evictions"))
	put("buildcache.evicted_bytes", "bytes", count("buildcache.evicted_bytes"))
	put("vfs.reads", "count", count("vfs.reads"))

	// inval, as the edit responses report it.
	put("inval.diff_ms", "ms", m.inval.diffMs/rounds)
	put("inval.decls_diffed", "count", float64(m.inval.declsDiffed)/rounds)
	put("inval.keep", "count", float64(m.inval.keep)/rounds)
	put("inval.recompile_wrappers", "count", float64(m.inval.wrappers)/rounds)
	put("inval.reprepare", "count", float64(m.inval.reprepare)/rounds)

	// daemon: client-timed RPCs and the server's own view.
	put("daemon.edit_rpc_p50_ms", "ms", msOf(percentile(m.editRPC, 0.5)))
	put("daemon.cycle_rpc_p50_ms", "ms", msOf(percentile(m.cycleRPC, 0.5)))
	put("daemon.request_p50_ms", "ms", histQuantile(w.final, "daemon.request_ms", p50))
	put("daemon.request_p95_ms", "ms", histQuantile(w.final, "daemon.request_ms", p95))
	put("daemon.request_self_ms", "ms", span("request").selfMs)
	put("daemon.queue.waits", "count", count("daemon.queue.waits"))
	put("daemon.rejected", "count", count("daemon.rejected"))
	put("daemon.cycles.cold", "count", count("daemon.cycles.cold"))
	put("daemon.cycles.warm", "count", count("daemon.cycles.warm"))

	// farm: router, cross-node leases, the L2 tier, the cache server.
	put("router.forwards", "count", count("router.forwards"))
	put("router.retries", "count", count("router.retries"))
	put("router.forward_errors", "count", count("router.forward_errors"))
	grants, waits := count("buildcache.lease.grants"), count("buildcache.lease.waits")
	put("buildcache.lease.grants", "count", grants)
	put("buildcache.lease.waits", "count", waits)
	put("buildcache.remote.tu_hits", "count", count("buildcache.remote.tu_hits"))
	put("buildcache.remote.misses", "count", count("buildcache.remote.misses"))
	put("buildcache.remote.errors", "count", count("buildcache.remote.errors"))
	for _, tier := range []string{"l1", "l2", "compile"} {
		put("buildcache.tier."+tier+"_p50_ms", "ms", histQuantile(w.final, "buildcache.tier."+tier+"_ms", p50))
	}
	put("farmcache.hits", "count", count("farmcache.hits"))
	put("farmcache.misses", "count", count("farmcache.misses"))
	put("farmcache.evictions", "count", count("farmcache.evictions"))
	put("farmcache.lease.timeouts", "count", count("farmcache.lease.timeouts"))

	// The Go runtime over the window.
	put("runtime.gc_cycles", "count", float64(w.rt.gcCycles)/rounds)
	put("runtime.gc_cpu_s", "s", w.rt.gcCPUs/rounds)
	put("runtime.heap_peak_mb", "MB", float64(w.rt.heapPeak)/1e6)
	put("runtime.alloc_mb", "MB", float64(w.rt.allocBytes)/1e6/rounds)

	// Tracing itself: request lanes the flight recorder dropped (over the
	// window, not per round: anything but 0 means spans are missing).
	put("obs.flight.evicted", "count", float64(w.counters["obs.flight.evicted"]))
	return out, nil
}

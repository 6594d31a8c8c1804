package par

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func lane(i int) string { return fmt.Sprintf("item %d", i) }

// TestEachLowestErrorAtAnyJobs fails indices 2 and 5 of 8: whatever the
// width, Each must return index 2's error, and at width 1 nothing after
// index 2 may start.
func TestEachLowestErrorAtAnyJobs(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		var started [8]atomic.Bool
		err := Each(nil, jobs, 8, lane, func(i int, _ *obs.Obs) error {
			started[i].Store(true)
			if i == 2 || i == 5 {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 2 failed" {
			t.Fatalf("jobs=%d: err = %v, want index 2's", jobs, err)
		}
		for i := 0; i <= 2; i++ {
			if !started[i].Load() {
				t.Errorf("jobs=%d: index %d, below the failure, never started", jobs, i)
			}
		}
		if jobs == 1 {
			for i := 3; i < 8; i++ {
				if started[i].Load() {
					t.Errorf("jobs=1: index %d started after index 2 failed", i)
				}
			}
		}
	}
}

// TestEachStopsAfterFailure fails index 0 at once while every other call
// takes a few milliseconds: each worker may finish the call it holds and
// claim at most one more before the stop, and every started call must
// have returned when Each does.
func TestEachStopsAfterFailure(t *testing.T) {
	const n, jobs = 1000, 2
	var started, returned atomic.Int64
	boom := errors.New("boom")
	err := Each(nil, jobs, n, lane, func(i int, _ *obs.Obs) error {
		started.Add(1)
		defer returned.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s := started.Load(); s > 2*jobs {
		t.Errorf("%d indices started after index 0 failed at once, want at most %d", s, 2*jobs)
	}
	if s, r := started.Load(), returned.Load(); s != r {
		t.Errorf("Each returned with %d of %d started calls still running", s-r, s)
	}
}

// TestEachBoundsAndOrder checks the width (at most jobs calls at once,
// jobs <= 0 meaning GOMAXPROCS), ascending start order, and that n == 0
// starts nothing.
func TestEachBoundsAndOrder(t *testing.T) {
	if err := Each(nil, 4, 0, lane, func(int, *obs.Obs) error {
		t.Error("n == 0 started a call")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ jobs, want int }{
		{1, 1}, {3, 3}, {0, runtime.GOMAXPROCS(0)}, {-1, runtime.GOMAXPROCS(0)},
	} {
		const n = 32
		var (
			mu           sync.Mutex
			order        []int
			running, max int
		)
		err := Each(nil, tc.jobs, n, lane, func(i int, _ *obs.Obs) error {
			mu.Lock()
			order = append(order, i)
			running++
			if running > max {
				max = running
			}
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			running--
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != n {
			t.Fatalf("jobs=%d: %d calls, want %d", tc.jobs, len(order), n)
		}
		if max > tc.want {
			t.Errorf("jobs=%d: %d calls ran at once, want at most %d", tc.jobs, max, tc.want)
		}
		// Calls record their index under the lock after they start, so
		// two calls may swap places here; ascending start order means no
		// index is recorded more than jobs places before its rank.
		for rank, i := range order {
			if i > rank+tc.want {
				t.Errorf("jobs=%d: index %d recorded at rank %d", tc.jobs, i, rank)
			}
		}
	}
}

// TestEachLanes records one span per call on a live tracer: every call
// gets a lane of its own, named by lane(i) and sealed, and none is the
// caller's.
func TestEachLanes(t *testing.T) {
	tr := obs.NewTracer(nil)
	root := obs.New(tr, nil)
	sp := root.Start("caller")
	caller := sp.Obs()
	const n = 6
	err := Each(caller, 3, n, lane, func(i int, lo *obs.Obs) error {
		if lo == caller {
			t.Errorf("call %d got the caller's handle", i)
		}
		s := lo.Start("call")
		s.SetInt("i", int64(i))
		s.End()
		return nil
	})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := tr.ExportSealed(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &trace); err != nil {
		t.Fatalf("sealed trace does not parse: %v", err)
	}
	names := map[int]string{}
	tidOf := map[int]int{}
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			names[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "X" && ev.Name == "call":
			tidOf[int(ev.Args["i"].(float64))] = ev.Tid
		case ev.Ph == "X":
			t.Errorf("span %q on a sealed lane; only the calls' lanes are sealed", ev.Name)
		}
	}
	if len(tidOf) != n {
		t.Fatalf("%d calls recorded on sealed lanes, want %d", len(tidOf), n)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		tid := tidOf[i]
		if seen[tid] {
			t.Errorf("call %d shares lane %d with another call", i, tid)
		}
		seen[tid] = true
		if names[tid] != lane(i) {
			t.Errorf("call %d on lane %q, want %q", i, names[tid], lane(i))
		}
		if names[tid] == "main" {
			t.Errorf("call %d recorded on the caller's lane", i)
		}
	}
}

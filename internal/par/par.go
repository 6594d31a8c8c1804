// Package par is the one way this repository runs indexed work in
// parallel: a bounded, ordered pool with one failure rule, so every
// fan-out (the experiment matrix, the split comparison, the checker's
// frontend and passes, split's TU analysis) reports the same error and
// the same results at any -j.
package par

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Each calls fn(i, lo) for every i in [0, n) on at most min(jobs, n)
// goroutines; jobs <= 0 means runtime.GOMAXPROCS(0), and n <= 0 starts
// nothing. Indices start in ascending order. Each call records on a
// trace lane of its own, lo = o.Lane(lane(i)), sealed when the call
// returns: no call records on the caller's lane.
//
// Once a call has failed no further index starts; calls already running
// finish, and Each returns after every call it started has returned.
// It returns the error of the lowest index that failed. Since indices
// start in order and stop only after a failure, the lowest index that
// would fail always runs, so the error is the same at any jobs.
func Each(o *obs.Obs, jobs, n int, lane func(i int) string, fn func(i int, lo *obs.Obs) error) error {
	if n <= 0 {
		return nil
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	errs := make([]error, n)
	var (
		mu      sync.Mutex
		next    int
		stopped bool
	)
	// claim hands out the next index, or none once a call has failed:
	// checking the stop and advancing under one lock is what makes every
	// index below a failure start.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next == n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	run := func(i int) error {
		lo := o.Lane(lane(i))
		defer lo.SealLane()
		return fn(i, lo)
	}
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				if errs[i] = run(i); errs[i] != nil {
					mu.Lock()
					stopped = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

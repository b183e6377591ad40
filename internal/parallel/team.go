// Package parallel executes schedules for real: the exact
// schedule.Program the cache simulator counts misses for is replayed by
// one worker goroutine per simulated core on actual float64 block data,
// with the typed block kernels of internal/matrix (the q×q "DGEMM"
// MulAdd plus LU's factor/trsm/mulsub set) at the leaves. Product
// algorithms are resolved through the algo registry, the LU
// factorisation compiles in internal/lu; there is no second copy of any
// loop nest here.
//
// This is the performance-evaluation half of the reproduction: it
// demonstrates that the algorithms are not just counting abstractions
// but executable schedules, verifies them against a reference product,
// and provides the real-time benchmarks.
package parallel

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/schedule"
)

// Team is a fixed pool of p worker goroutines, one per simulated core.
// Run dispatches a closure to every worker and blocks until all have
// finished — the "foreach core c = 1..p in parallel" construct of the
// paper's pseudocode. A Team must be released with Close.
//
// Failure model: a body that panics does not crash the process or kill
// its worker — the panic is recovered on the worker, converted into a
// *RunError (Panicked set, value and stack preserved), and returned
// from the join like any other error, while the remaining workers run
// their bodies to completion and the join never deadlocks. A closed
// Team refuses new work with an error instead of panicking on its
// closed channels, so a defer-ordering mistake in a caller degrades to
// a clean failure.
//
// A Team runs one launch at a time, and every launch reuses the same
// join state (body, error slots, wait group), so dispatching a region
// allocates nothing. A Launch while an earlier launch is still unjoined
// fails cleanly, like one on a closed Team.
type Team struct {
	p      int
	jobs   []chan struct{}
	mu     sync.Mutex
	closed bool
	busy   bool // a launch is dispatched and not yet joined
	close  sync.Once

	// Launch state, written by the launching goroutine before the jobs
	// are signalled and read back after the wait group drains.
	body func(core int) error
	errs []error
	wg   sync.WaitGroup
	join func() error // t.wait, bound once so Launch can return it for free
}

// NewTeam starts p workers.
func NewTeam(p int) (*Team, error) {
	if p <= 0 {
		return nil, fmt.Errorf("parallel: need at least one worker, got %d", p)
	}
	t := &Team{
		p:    p,
		jobs: make([]chan struct{}, p),
		errs: make([]error, p),
	}
	t.join = t.wait
	for c := 0; c < p; c++ {
		t.jobs[c] = make(chan struct{})
		go t.work(c)
	}
	return t, nil
}

// work is worker c's loop: one body per signal on its job channel.
func (t *Team) work(c int) {
	for range t.jobs[c] {
		t.errs[c] = isolated(c, t.body)
		t.wg.Done()
	}
}

// Size returns the number of workers.
func (t *Team) Size() int { return t.p }

// Run executes body(core) on every worker concurrently and waits for all
// of them. The first non-nil error is returned; bodies for distinct
// cores must touch disjoint output data (the algorithms guarantee this
// by construction). A panicking body surfaces as a *RunError, never as
// a process crash (see the Team failure model).
func (t *Team) Run(body func(core int) error) error {
	return t.Launch(body)()
}

// Launch dispatches body(core) to every worker and returns immediately
// with the join: calling the returned function blocks until all workers
// finish and yields the first error. Between Launch and the join the
// caller runs concurrently with the workers — the pipelined executor
// uses that window to stage shared blocks while the team computes. The
// join must be called exactly once before the next Launch.
//
// Worker panics are recovered into *RunError values and reported
// through the join; every worker's wg.Done runs unconditionally, so a
// panicking body can never leave the join waiting. Launching on a
// closed Team, or before the previous launch was joined, returns a
// join that fails immediately.
func (t *Team) Launch(body func(core int) error) (wait func() error) {
	t.mu.Lock()
	if t.closed || t.busy {
		what := "a closed Team"
		if !t.closed {
			what = "a Team whose previous launch is not joined"
		}
		t.mu.Unlock()
		return func() error {
			return fmt.Errorf("parallel: Launch on %s of %d workers", what, t.p)
		}
	}
	t.busy = true
	t.body = body
	t.wg.Add(t.p)
	// The sends stay under mu so Close cannot close a channel mid-
	// dispatch. They do not block for long: the previous launch was
	// joined, so every worker is parked on its channel.
	for _, ch := range t.jobs {
		ch <- struct{}{}
	}
	t.mu.Unlock()
	return t.join
}

// wait is the join of the current launch: it blocks until every worker
// finished, returns the first error, and readies the Team for the next
// launch.
func (t *Team) wait() error {
	t.wg.Wait()
	var first error
	for c, err := range t.errs {
		if first == nil {
			first = err
		}
		t.errs[c] = nil
	}
	t.mu.Lock()
	t.body = nil
	t.busy = false
	t.mu.Unlock()
	return first
}

// isolated runs body(core) with panic isolation: a panic becomes a
// *RunError carrying the core, the recovered value and the stack. The
// executor's replay attributes panics to a specific op with full
// provenance before they reach this backstop; this layer guarantees
// that *no* body — replay or not — can crash the process or strand the
// team's join.
func isolated(core int, body func(core int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Op:         schedule.OpRef{Region: -1, Core: core, Index: -1},
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			}
		}
	}()
	return body(core)
}

// Close terminates the workers. The Team is unusable afterwards: Run
// and Launch return errors rather than panicking. Close must not be
// called concurrently with Launch (callers own the Team's lifecycle);
// calling it twice is safe.
func (t *Team) Close() {
	t.close.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		for _, ch := range t.jobs {
			close(ch)
		}
	})
}

// Package runner is the fault-containing parallel executor behind
// bulk sweeps: it runs (machine, app, seed) cells on a bounded worker
// pool with per-cell deadlines, panic isolation, bounded retry for
// transient failures, and graceful degradation — a failed cell becomes
// a structured RunError in a failure manifest while its siblings
// complete, so a multi-hour sweep survives one bad cell.
//
// Determinism: outcomes are collected into a slice indexed by the
// input cell order, so a caller that emits results in that order
// produces byte-identical output regardless of worker count or
// scheduling.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Cell identifies one unit of sweep work.
type Cell struct {
	Machine string
	App     string
	Seed    uint64
}

// String renders the cell identity for error messages.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/seed=%d", c.Machine, c.App, c.Seed)
}

// RunError records one cell's failure with its identity, so a sweep's
// failure manifest can name exactly what was lost.
type RunError struct {
	Cell Cell
	// Attempts is how many times the cell was tried before giving up.
	Attempts int
	// Panicked reports whether the final attempt ended in a panic;
	// Stack then holds the recovered goroutine stack.
	Panicked bool
	Stack    string
	// Err is the underlying failure (the recovered panic value wrapped
	// as an error, the cell's returned error, or a context error).
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	kind := "failed"
	if e.Panicked {
		kind = "panicked"
	}
	return fmt.Sprintf("cell %s %s after %d attempt(s): %v", e.Cell, kind, e.Attempts, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return "transient: " + t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err so the pool retries it (up to Config.Retries).
// Errors not wrapped this way are treated as permanent.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Gate admits cells to execution slots shared beyond one pool. A pool
// given a Gate acquires one slot per cell (not per attempt) before the
// cell runs and releases it when the cell finishes, so several
// concurrently running pools — the sweep daemon runs one per job over
// one machine-wide slot set — are bounded and scheduled together.
// Acquire must honor ctx: when the context is cancelled while waiting
// for a slot, it returns the context's error and the cell is recorded
// as a cancellation casualty, never silently skipped.
type Gate interface {
	Acquire(ctx context.Context) error
	Release()
}

// Config bounds and shapes a pool run.
type Config struct {
	// Workers is the pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Timeout is the per-cell (per-attempt) deadline; 0 disables it. A
	// cell function that ignores its context is abandoned when the
	// deadline passes — the worker moves on and the attempt's result is
	// discarded.
	Timeout time.Duration
	// Retries is how many additional attempts a transient failure gets.
	Retries int
	// Backoff is the sleep before the first retry, doubling per
	// subsequent retry; <= 0 uses 50ms.
	Backoff time.Duration
	// KeepGoing records failures and lets sibling cells complete;
	// otherwise the first failure cancels the rest of the run.
	KeepGoing bool
	// OnFailure, when non-nil, is called from the worker goroutine the
	// moment a cell's attempts are exhausted — before sibling cells
	// finish — so failures can be persisted incrementally instead of
	// only in the end-of-sweep manifest. It may be called concurrently
	// from multiple workers and must be safe for that. Cells cancelled
	// before dispatch do not fire it.
	OnFailure func(*RunError)
	// Gate, when non-nil, is acquired once per cell before it runs and
	// released when it finishes. It is how multiple pools share one
	// bounded slot set (see Gate); a nil Gate admits every dispatched
	// cell immediately.
	Gate Gate
}

// Func computes one cell. i is the cell's position in the input slice —
// its identity, since several cells may carry the same label. It must
// respect ctx for prompt cancellation; panics are recovered and
// contained by the pool.
type Func[T any] func(ctx context.Context, i int, c Cell) (T, error)

// Outcome is one cell's result: either Value, or a non-nil Err.
type Outcome[T any] struct {
	Cell  Cell
	Value T
	Err   *RunError
}

// Run executes cells on a bounded worker pool and returns one outcome
// per cell, in input order.
//
//   - KeepGoing: every cell runs; failures land in their outcomes and
//     the returned error is nil (inspect outcomes / BuildManifest).
//   - Not KeepGoing: the first failure cancels the pool and is
//     returned; cells that never ran carry a context.Canceled outcome.
//   - If ctx is cancelled, Run drains its workers and returns ctx.Err().
func Run[T any](ctx context.Context, cfg Config, cells []Cell, fn Func[T]) ([]Outcome[T], error) {
	return RunOrdered(ctx, cfg, cells, nil, fn)
}

// RunOrdered is Run with the cells dispatched in the given order, a
// permutation of their indexes (nil dispatches in input order).
// Outcomes, fn's cell index and the reported failure stay keyed by
// input position; only which cells start first changes.
func RunOrdered[T any](ctx context.Context, cfg Config, cells []Cell, order []int, fn Func[T]) ([]Outcome[T], error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	outcomes := make([]Outcome[T], len(cells))
	for i, c := range cells {
		outcomes[i] = Outcome[T]{Cell: c}
	}
	if len(cells) == 0 {
		return outcomes, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				outcomes[i] = runGated(runCtx, cfg, i, cells[i], fn)
				if outcomes[i].Err != nil {
					if cfg.OnFailure != nil {
						cfg.OnFailure(outcomes[i].Err)
					}
					if !cfg.KeepGoing {
						cancel()
					}
				}
			}
		}()
	}
	if order == nil {
		order = make([]int, len(cells))
		for i := range order {
			order[i] = i
		}
	}
	next := len(order)
feed:
	for k, i := range order {
		select {
		case idxCh <- i:
		case <-runCtx.Done():
			next = k
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	// Cells never dispatched are cancellation casualties, not successes.
	for _, i := range order[next:] {
		outcomes[i].Err = &RunError{Cell: cells[i], Err: context.Canceled}
	}

	if err := ctx.Err(); err != nil {
		return outcomes, err
	}
	if !cfg.KeepGoing {
		// Deterministically report the lowest-index failure that is not
		// itself a cancellation casualty.
		for i := range outcomes {
			if e := outcomes[i].Err; e != nil && !errors.Is(e.Err, context.Canceled) {
				return outcomes, e
			}
		}
		// All failures (if any) were cancellation casualties of a
		// failure we somehow can't see; fall through to success.
		for i := range outcomes {
			if outcomes[i].Err != nil {
				return outcomes, outcomes[i].Err
			}
		}
	}
	return outcomes, nil
}

// runGated wraps runCell in the (optional) shared admission gate: one
// slot per cell, held across every attempt, released whatever the
// outcome. A cancellation while waiting for a slot becomes an ordinary
// cancellation outcome, so callers see the cell as lost to the
// shutdown rather than mysteriously absent.
func runGated[T any](ctx context.Context, cfg Config, i int, c Cell, fn Func[T]) Outcome[T] {
	if cfg.Gate != nil {
		if err := cfg.Gate.Acquire(ctx); err != nil {
			return Outcome[T]{Cell: c, Err: &RunError{Cell: c, Err: err}}
		}
		defer cfg.Gate.Release()
	}
	return runCell(ctx, cfg, i, c, fn)
}

// runCell drives one cell through its attempts.
func runCell[T any](ctx context.Context, cfg Config, i int, c Cell, fn Func[T]) Outcome[T] {
	out := Outcome[T]{Cell: c}
	backoff := cfg.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			out.Err = &RunError{Cell: c, Attempts: attempt - 1, Err: err}
			return out
		}
		v, err, panicked, stack := runAttempt(ctx, cfg.Timeout, i, c, fn)
		if err == nil {
			out.Value = v
			return out
		}
		// Panics, deadline blows and permanent errors are final; only
		// explicitly transient errors earn a retry.
		if panicked || !IsTransient(err) || attempt > cfg.Retries || ctx.Err() != nil {
			out.Err = &RunError{Cell: c, Attempts: attempt, Panicked: panicked, Stack: stack, Err: err}
			return out
		}
		select {
		case <-time.After(backoff << (attempt - 1)):
		case <-ctx.Done():
			out.Err = &RunError{Cell: c, Attempts: attempt, Err: ctx.Err()}
			return out
		}
	}
}

// runAttempt executes fn once under the per-cell deadline, containing
// panics. The attempt runs in its own goroutine so a deadline or
// cancellation can abandon a function that ignores its context; the
// abandoned goroutine finishes whenever fn returns and its result is
// discarded (the result channel is buffered, so it never blocks).
func runAttempt[T any](ctx context.Context, timeout time.Duration, i int, c Cell, fn Func[T]) (v T, err error, panicked bool, stack string) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type attemptResult struct {
		v        T
		err      error
		panicked bool
		stack    string
	}
	ch := make(chan attemptResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- attemptResult{
					err:      fmt.Errorf("panic: %v", r),
					panicked: true,
					stack:    string(debug.Stack()),
				}
			}
		}()
		v, err := fn(actx, i, c)
		ch <- attemptResult{v: v, err: err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err, r.panicked, r.stack
	case <-actx.Done():
		return v, actx.Err(), false, ""
	}
}

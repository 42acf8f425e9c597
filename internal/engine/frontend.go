package engine

import (
	"context"
	"sync"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/runner"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
)

// This file shares recorded front ends among the cells of one
// execution. The standard machines share their L1s, core and trace and
// differ only past the L1 (see internal/mem's frame.go), so a plan's
// cells fall into front-end groups: same trace, L1s, prefetcher, CPU
// model, warm-up and sampling spec. Every cell of a group replays the
// same L2 event stream. The first cell of a group that needs the
// stream runs whole and records it as it goes (singleflight: cells that
// need it meanwhile wait); every other cell replays only the back end.
// A group of one runs whole without recording.
//
// Streams live outside the memo and the arena. Each is dropped when
// the last cell of its group finishes, and the registry dies with the
// execution. Cells dispatch group by group, with each group's first
// cell pulled `workers` groups ahead (dispatchOrder), so a stream is
// recorded while earlier groups replay and live streams stay bounded
// by 2x the worker count however large the plan is.

// FrontEndStats counts shared front ends: Built streams recorded, and
// Reused cells that replayed a stream another cell recorded.
type FrontEndStats struct {
	Built  uint64
	Reused uint64
}

// frontGroup is one front-end group's shared stream.
type frontGroup struct {
	// refs counts the group's cells that have not finished.
	refs   int
	stream *sim.Stream
	// wait is non-nil while a cell records the stream; it is closed
	// when the recording ends, kept or not.
	wait chan struct{}
}

// frontEnds is one execution's stream registry.
type frontEnds struct {
	store *tracestore.Store
	cells []sim.Cell
	// group is each cell's shared group; nil runs the cell whole.
	group []*frontGroup
	// order is the dispatch order (see dispatchOrder).
	order []int

	eng *Engine

	mu            sync.Mutex
	live          int // streams recorded or recording, held in memory
	peak          int
	built, reused uint64
}

// newFrontEnds groups the plan's cells by front end. Cells in skip
// (already satisfied, e.g. resumed) neither record nor hold a stream.
func newFrontEnds(e *Engine, plan Plan, skip []bool, workers int) (*frontEnds, error) {
	f := &frontEnds{
		store: e.store, eng: e,
		cells: make([]sim.Cell, len(plan.Cells)),
		group: make([]*frontGroup, len(plan.Cells)),
	}
	ids := map[checkpoint.Key]int{}
	groupOf := make([]int, len(plan.Cells))
	var groups []*frontGroup
	for i, c := range plan.Cells {
		f.cells[i] = simCell(c, plan.Accesses, plan.Warmup, plan.Sample)
		key, err := checkpoint.KeyOf("front-end", c.Profile, c.Seed, f.cells[i].FrontEnd())
		if err != nil {
			return nil, err
		}
		id, ok := ids[key]
		if !ok {
			id = len(groups)
			ids[key] = id
			groups = append(groups, &frontGroup{})
		}
		groupOf[i] = id
		if !skip[i] {
			groups[id].refs++
		}
	}
	for i, id := range groupOf {
		if g := groups[id]; g.refs > 1 && !skip[i] {
			f.group[i] = g
		}
	}
	f.order = dispatchOrder(groupOf, len(groups), workers)
	return f, nil
}

// dispatchOrder lists cell indexes group by group, in order of each
// group's first appearance, with each group's first cell moved `lead`
// groups ahead: while group g's remaining cells replay, group g+lead's
// stream is recording. A plan of singleton groups keeps plan order.
func dispatchOrder(groupOf []int, ngroups, lead int) []int {
	members := make([][]int, ngroups)
	for i, g := range groupOf {
		members[g] = append(members[g], i)
	}
	order := make([]int, 0, len(groupOf))
	for g := 0; g < lead && g < ngroups; g++ {
		order = append(order, members[g][0])
	}
	for g := range members {
		if h := g + lead; h < ngroups {
			order = append(order, members[h][0])
		}
		order = append(order, members[g][1:]...)
	}
	return order
}

// run simulates cell i: whole when it shares its front end with no
// other cell; otherwise as the back end of its group's stream, or, for
// the first cell that finds no stream, whole while recording it.
func (f *frontEnds) run(ctx context.Context, i int) (rep sim.RunReport, err error) {
	g := f.group[i]
	if g == nil {
		return sim.RunCell(f.store, f.cells[i])
	}
	st, err := f.acquire(ctx, g)
	if err != nil {
		return rep, err
	}
	if st != nil {
		return sim.ReplayCell(f.cells[i], st)
	}
	// This cell records. The deferred publish also runs on a panic, so
	// cells waiting for the recording are always released.
	defer func() { f.publish(g, st, err == nil && ctx.Err() == nil) }()
	rep, st, err = sim.RecordCell(f.store, f.cells[i])
	return rep, err
}

// acquire returns group g's stream, waiting while another cell records
// it; a nil stream and nil error mean the caller must record it.
func (f *frontEnds) acquire(ctx context.Context, g *frontGroup) (*sim.Stream, error) {
	for {
		f.mu.Lock()
		if st := g.stream; st != nil {
			f.reused++
			f.mu.Unlock()
			f.eng.frontReused.Add(1)
			return st, nil
		}
		wait := g.wait
		if wait == nil {
			g.wait = make(chan struct{})
			f.live++
			f.peak = max(f.peak, f.live)
			f.mu.Unlock()
			return nil, nil
		}
		f.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// publish ends a recording of group g's stream: kept when the
// recording cell succeeded and was not cancelled meanwhile, dropped
// otherwise (an error, a panic, a cancellation), so that the next cell
// that needs it records it again.
func (f *frontEnds) publish(g *frontGroup, st *sim.Stream, keep bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(g.wait)
	g.wait = nil
	if !keep || st == nil {
		f.live--
		return
	}
	g.stream = st
	f.built++
	f.eng.frontBuilt.Add(1)
}

// done retires cell i after an attempt that err ended. A transient
// failure may be retried, so the cell keeps its hold on the stream;
// anything else is final and drops the stream once no cell of the
// group is left.
func (f *frontEnds) done(i int, err error) {
	g := f.group[i]
	if g == nil || (err != nil && runner.IsTransient(err)) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	g.refs--
	if g.refs == 0 && g.stream != nil {
		g.stream = nil
		f.live--
	}
}

// stats is the execution's sharing summary and the most streams it
// held at once. Cells abandoned by a deadline or a cancellation may
// still be running, hence the lock.
func (f *frontEnds) stats() (FrontEndStats, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FrontEndStats{Built: f.built, Reused: f.reused}, f.peak
}

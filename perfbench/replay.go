package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"mobilecache/internal/engine"
	"mobilecache/internal/experiments"
	"mobilecache/internal/sim"
	"mobilecache/internal/stats"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
)

// cellOut is what the T2 summary needs from one cell.
type cellOut struct{ l2J, ipc float64 }

// t2Of is T2's summary over matched cells: each cell of scheme is
// normalized to the baseline-sram cell at the same index, and the
// saving and loss are one minus the geometric means.
func t2Of(base, scheme []cellOut) (saving, loss float64) {
	var normE, normI []float64
	for i := range base {
		normE = append(normE, scheme[i].l2J/base[i].l2J)
		normI = append(normI, scheme[i].ipc/base[i].ipc)
	}
	return 1 - stats.GeoMean(normE), 1 - stats.GeoMean(normI)
}

// setT2Cells records the T2 figures of cells keyed by machine name,
// each machine's cells in the same trace order.
func setT2Cells(e *env, cells map[string][]cellOut) {
	saveSP, lossSP := t2Of(cells["baseline-sram"], cells["sp-mr"])
	saveDP, lossDP := t2Of(cells["baseline-sram"], cells["dp-sr"])
	setT2(e, saveSP, saveDP, lossSP, lossDP)
}

// fillArena generates every trace into a fresh single-shard arena and
// leaves each resident in packed form only. The arena evicts older
// traces before demoting the hot form of the one just committed, so
// the budget must hold all packed forms plus one hot form; a final
// one-record trace then forces the last hot form out. packed is the
// traces' total packed size (0 on the first call, which learns it with
// an unbounded arena); fillArena returns the packed total it saw.
func fillArena(e *env, traces []traceRef, accesses int, packed int64) (*tracestore.Store, int64, error) {
	hot := int64(accesses) * int64(unsafe.Sizeof(trace.Access{}))
	budget := packed + hot
	if packed == 0 {
		budget = -1
	}
	store := tracestore.NewSharded(budget, 1)
	sizes := make([]int64, len(traces))
	errs := make([]error, len(traces))
	forEach(len(traces), e.workers, func(i int) {
		tr, err := store.GetTrace(traces[i].prof, traces[i].seed, accesses)
		if err == nil {
			sizes[i] = tr.Packed.SizeBytes()
		}
		errs[i] = err
	})
	var total int64
	for i, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		total += sizes[i]
	}
	if packed > 0 {
		if _, err := store.GetTrace(traces[0].prof, traces[0].seed+1, 1); err != nil {
			return nil, 0, err
		}
	}
	return store, total, nil
}

// replayPass is one execution of every standard machine over the
// resident traces on a fresh engine: its cell times and the time to
// its first result.
type replayPass struct {
	cells []float64
	first time.Duration
}

// runReplayPacked replays a few long traces on all seven standard
// machines from the arena's packed tier. Generation happens in set-up,
// so the timed passes are the replay kernel alone.
func runReplayPacked(e *env) error {
	var traces []traceRef
	for i, app := range experiments.QuickOptions().Apps[:e.size.replayTraces] {
		traces = append(traces, traceRef{app, suiteSeed(e.seed, i)})
	}
	accesses := e.size.replayAccesses
	// Every set-up does the same generation; the first also learns the
	// packed sizes the later ones budget for, and the last one's arena
	// is the one the timed passes replay from.
	var store *tracestore.Store
	var packed int64
	var setups []float64
	for r := 0; r <= e.size.setupReps; r++ {
		w := startWindow()
		s, total, err := fillArena(e, traces, accesses, packed)
		if err != nil {
			return err
		}
		setups = append(setups, e.setupSeconds(w))
		store, packed = s, total
	}
	distinct := uint64(len(traces)) + 1 // the traces and the one-record trigger
	st := store.Stats()
	if st.Generated != distinct || st.Evictions != 0 || st.Demotions != uint64(len(traces)) {
		e.fail("arena after set-up: %d generated, %d evictions, %d demotions; want %d, 0 and %d",
			st.Generated, st.Evictions, st.Demotions, distinct, len(traces))
	}
	for _, t := range traces {
		if tr, err := store.GetTrace(t.prof, t.seed, accesses); err != nil || tr.Records != nil {
			e.fail("arena after set-up: %s/%d is not resident in packed form only (%v)", t.prof.Name, t.seed, err)
		}
	}

	machines := sim.StandardMachines()
	plan := engine.Plan{Accesses: accesses}
	for _, cfg := range machines {
		for _, t := range traces {
			plan.Cells = append(plan.Cells, engine.Cell{Machine: cfg.Name, Config: cfg, App: t.prof.Name, Profile: t.prof, Seed: t.seed})
		}
	}

	// reports are the first pass's, which every later pass must repeat;
	// lastEng is the most recent pass's engine.
	var passes []replayPass
	var reports []sim.RunReport
	var lastEng *engine.Engine
	pass := func() error {
		sp := e.tr.begin("replay-packed.pass", -1)
		defer e.tr.end(sp)
		var p replayPass
		lastEng = engine.New(engine.Config{Workers: e.workers, Store: store})
		gate := newCellGate(e.tr, sp)
		col := engine.NewCollector()
		start := time.Now()
		var once sync.Once
		_, err := lastEng.Execute(context.Background(), plan, engine.ExecOptions{
			Gate:     gate,
			OnResult: func(engine.Result) { once.Do(func() { p.first = time.Since(start) }) },
		}, col)
		e.attempted += len(plan.Cells)
		e.failed += len(plan.Cells) - len(col.Results)
		if err != nil {
			return fmt.Errorf("replay-packed: %w", err)
		}
		var got []sim.RunReport
		for _, r := range col.Results {
			got = append(got, r.Report)
		}
		if reports == nil {
			reports = got
		} else if !reflect.DeepEqual(reports, got) {
			e.fail("replay-packed pass %d: reports differ from pass 0", len(passes))
		}
		p.cells = gate.durations()
		passes = append(passes, p)
		return nil
	}
	walls, factors, err := e.repeat(e.size.minPasses, pass)
	if err != nil {
		return err
	}
	st = store.Stats()
	if st.Generated != distinct || st.Evictions != 0 {
		e.fail("arena after the timed passes: %d generated, %d evicted; want %d and 0", st.Generated, st.Evictions, distinct)
	}
	verifyAgainstHotTier(e, plan, reports)

	if !e.traced {
		var cells, firsts []float64
		for i, p := range passes {
			for _, c := range p.cells {
				cells = append(cells, c*factors[i])
			}
			firsts = append(firsts, ms(p.first)*factors[i])
		}
		e.setScaled("setup_s", median(setups), "s")
		e.setScaled("wall_s", median(walls), "s")
		e.set("retained_mb", retainedMB(), "MB")
		runtime.KeepAlive(lastEng)
		runtime.KeepAlive(store)
		e.setScaled("job_p50_ms", median(cells), "ms")
		e.setScaled("job_p90_ms", percentile(cells, 90), "ms")
		e.setScaled("first_result_p50_ms", median(firsts), "ms")
		byMachine := map[string][]cellOut{}
		for i, c := range plan.Cells {
			r := reports[i]
			byMachine[c.Machine] = append(byMachine[c.Machine], cellOut{r.L2EnergyJ(), r.IPC()})
		}
		setT2Cells(e, byMachine)
		fmt.Fprintf(e.log, "cells: %d over %d passes; arena %d bytes for %d packed traces\n",
			len(cells), len(passes), st.BytesInUse, st.Entries)
		return nil
	}

	untracedWall := median(walls)
	passes = passes[:0]
	e.tr = newTracer()
	tracedWalls, _, err := e.repeat(e.size.minPasses, pass)
	if err != nil {
		return err
	}
	e.set("tracing.overhead_pct", (median(tracedWalls)/untracedWall-1)*100, "%")
	setArenaMetrics(e, store.Stats(), lastEng.MemoStats())
	var observed []float64
	for _, p := range passes {
		observed = append(observed, p.cells...)
	}
	if err := layerPass(e, traces, accesses, nil, observed); err != nil {
		return err
	}
	experimentsProbe(e)
	return daemonProbe(e)
}

// verifyAgainstHotTier replays every cell of plan from the hot tier of
// a separate, unbounded arena and requires the packed-tier reports to
// match exactly. It runs outside the timed phase.
func verifyAgainstHotTier(e *env, plan engine.Plan, got []sim.RunReport) {
	if len(got) != len(plan.Cells) {
		e.fail("replay-packed: %d reports for %d cells", len(got), len(plan.Cells))
		return
	}
	hot := tracestore.New(-1)
	want := make([]sim.RunReport, len(plan.Cells))
	errs := make([]error, len(plan.Cells))
	forEach(len(plan.Cells), e.workers, func(i int) {
		c := plan.Cells[i]
		want[i], errs[i] = sim.RunWorkloadFrom(hot, c.Config, c.Profile, c.Seed, plan.Accesses)
	})
	for i, c := range plan.Cells {
		switch {
		case errs[i] != nil:
			e.fail("hot-tier replay of %s on %s: %v", c.Machine, c.App, errs[i])
		case !reflect.DeepEqual(want[i], got[i]):
			e.fail("%s on %s: packed-tier report differs from the hot-tier replay", c.Machine, c.App)
		}
	}
}

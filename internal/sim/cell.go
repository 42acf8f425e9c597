package sim

import (
	"mobilecache/internal/config"
	"mobilecache/internal/cpu"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// Cell is one store-backed run: a fresh machine replays Warmup+Accesses
// records of an arena trace, measuring the last Accesses (all of them
// without a warm-up), optionally set-sampled. A cell runs whole
// (RunCell), or whole while recording its front end (RecordCell), or
// as the back end alone of a front end another cell recorded
// (ReplayCell); the reports are identical.
type Cell struct {
	Config   config.Machine
	Profile  workload.Profile
	Seed     uint64
	Accesses int
	Warmup   int
	Sample   sample.Spec
}

// FrontEnd lists every input the front end of a cell's replay reads
// besides its trace (profile, seed and length): two cells with equal
// FrontEnds replaying the same trace record identical Streams. The L2,
// DRAM, idle length and machine name are absent on purpose — only the
// back end reads them.
type FrontEnd struct {
	L1I, L1D  config.L1
	Prefetch  bool
	BaseCPI   float64
	IdleEvery uint64
	Accesses  int
	Warmup    int
	Sample    sample.Spec
}

// FrontEnd returns the cell's front-end inputs.
func (c Cell) FrontEnd() FrontEnd {
	return FrontEnd{
		L1I: c.Config.L1I, L1D: c.Config.L1D,
		Prefetch: c.Config.Prefetch, BaseCPI: c.Config.BaseCPI, IdleEvery: c.Config.IdleEvery,
		Accesses: c.Accesses, Warmup: c.Warmup, Sample: c.Sample.Norm(),
	}
}

// RunCell runs the cell whole: the trace comes from the store's arena
// (the filtered derived trace for a sampled cell) and both replay
// stages run frame by frame.
func RunCell(store *tracestore.Store, c Cell) (RunReport, error) {
	m, err := c.build()
	if err != nil {
		return RunReport{}, err
	}
	src, stats, err := c.source(store, m)
	if err != nil {
		return RunReport{}, err
	}
	return c.finish(m, liveFeed{src}, stats)
}

// Stream is a cell's recorded front end: one cpu.Segment per CPU run
// of the cell (warm-up, then measurement), plus the sampling filter's
// statistics for a sampled cell. It is immutable, so any number of
// cells may replay it concurrently.
type Stream struct {
	segs  []cpu.Segment
	stats statser
}

// RecordCell is RunCell that also records the cell's front end: any
// cell with an equal FrontEnd and trace can then ReplayCell the stream
// instead of running whole.
func RecordCell(store *tracestore.Store, c Cell) (RunReport, *Stream, error) {
	m, err := c.build()
	if err != nil {
		return RunReport{}, nil, err
	}
	src, stats, err := c.source(store, m)
	if err != nil {
		return RunReport{}, nil, err
	}
	f := &recordingFeed{src: src}
	rep, err := c.finish(m, f, stats)
	if err != nil {
		return rep, nil, err
	}
	return rep, &Stream{segs: f.segs, stats: stats}, nil
}

// ReplayCell runs the cell on a fresh machine by replaying only the
// back end of st, which RecordCell recorded for a cell with an equal
// FrontEnd and trace; the report equals RunCell's.
func ReplayCell(c Cell, st *Stream) (RunReport, error) {
	m, err := c.build()
	if err != nil {
		return RunReport{}, err
	}
	return c.finish(m, &recordedFeed{segs: st.segs}, st.stats)
}

// build fires the chaos hook and builds the cell's machine.
func (c Cell) build() (*Machine, error) {
	if err := chaosEnter(c.Config.Name, c.Profile.Name, c.Seed); err != nil {
		return nil, err
	}
	return BuildSampled(c.Config, c.Sample)
}

// source returns the cell's replay stream for m: the arena trace, or
// for a sampled machine the cached filtered trace and its statistics.
func (c Cell) source(store *tracestore.Store, m *Machine) (trace.Source, statser, error) {
	total := c.Warmup + c.Accesses
	if m.Sample != nil {
		src, st, err := filteredTrace(store, m, c.Profile, c.Seed, total)
		return src, staticStats(st), err
	}
	tr, err := store.GetTrace(c.Profile, c.Seed, total)
	if err != nil {
		return nil, nil, err
	}
	return tr.Cursor(), nil, nil
}

// finish runs the cell's CPU runs from f on m — one cold run, or the
// warm-up then the measurement — and returns the audited report,
// scaled back to full-cache estimates for a sampled machine. A sampled
// warm-up compresses with the filtered stream, whose measured
// remainder runs to its end.
func (c Cell) finish(m *Machine, f feed, stats statser) (RunReport, error) {
	var rep RunReport
	switch {
	case c.Warmup == 0:
		rep = runTrace(m, c.Profile.Name, f, 0)
	case m.Sample != nil:
		rep = runWarm(m, c.Profile.Name, f, uint64(c.Warmup)/uint64(m.Sample.Factor()), 0)
	default:
		rep = runWarm(m, c.Profile.Name, f, uint64(c.Warmup), uint64(c.Accesses))
	}
	return finishSampled(m, stats, rep)
}

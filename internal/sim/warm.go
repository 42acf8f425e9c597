package sim

import (
	"mobilecache/internal/config"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/mem"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// This file adds warm measurement: run a warmup prefix to populate the
// caches (and let the dynamic controller converge), then measure only
// the remainder. All simulator counters are cumulative, so the
// measured report is the difference of two snapshots.
//
// The standard experiments measure cold-start runs on purpose —
// interactive mobile episodes are short and include their cold misses —
// but warm measurement is the right tool for steady-state studies.

func subBreakdown(a, b energy.Breakdown) energy.Breakdown {
	return energy.Breakdown{
		ReadJ:    a.ReadJ - b.ReadJ,
		WriteJ:   a.WriteJ - b.WriteJ,
		LeakageJ: a.LeakageJ - b.LeakageJ,
		RefreshJ: a.RefreshJ - b.RefreshJ,
	}
}

func subEnergy(a, b mem.EnergyReport) mem.EnergyReport {
	return mem.EnergyReport{
		L1I:   subBreakdown(a.L1I, b.L1I),
		L1D:   subBreakdown(a.L1D, b.L1D),
		L2:    subBreakdown(a.L2, b.L2),
		DRAMJ: a.DRAMJ - b.DRAMJ,
	}
}

func subL2Stats(a, b core.L2Stats) core.L2Stats {
	var out core.L2Stats
	for d := 0; d < trace.NumDomains; d++ {
		out.Accesses[d] = a.Accesses[d] - b.Accesses[d]
		out.Hits[d] = a.Hits[d] - b.Hits[d]
		out.Misses[d] = a.Misses[d] - b.Misses[d]
	}
	out.Evictions = a.Evictions - b.Evictions
	out.InterferenceEvictions = a.InterferenceEvictions - b.InterferenceEvictions
	out.Writebacks = a.Writebacks - b.Writebacks
	out.ExpiryInvalidations = a.ExpiryInvalidations - b.ExpiryInvalidations
	out.Refreshes = a.Refreshes - b.Refreshes
	out.EagerWritebacks = a.EagerWritebacks - b.EagerWritebacks
	out.CleanExpiries = a.CleanExpiries - b.CleanExpiries
	out.DirtyExpiries = a.DirtyExpiries - b.DirtyExpiries
	// FaultExpiries was historically dropped from warm diffs, silently
	// zeroing fault-loss accounting in warm measurements; subtract it
	// like every other counter.
	out.FaultExpiries = a.FaultExpiries - b.FaultExpiries
	return out
}

// RunWarm replays warmupAccesses records of src to warm the machine,
// then measures the next measureAccesses records (0 = until the source
// ends). The returned report covers only the measured portion; its
// History (for dynamic designs) is trimmed to decisions taken during
// measurement.
func RunWarm(m *Machine, name string, src trace.Source, warmupAccesses, measureAccesses uint64) RunReport {
	return runWarm(m, name, liveFeed{src}, warmupAccesses, measureAccesses)
}

func runWarm(m *Machine, name string, f feed, warmupAccesses, measureAccesses uint64) RunReport {
	if warmupAccesses > 0 {
		// Run bounds itself by the access count; skipping the LimitSource
		// wrapper keeps packed-cursor sources on their fast path.
		f.run(m, warmupAccesses)
	}
	m.Hier.Advance(m.CPU.Now())

	before := RunReport{
		L2:     m.L2.Stats(),
		Energy: m.Hier.Energy(),
	}
	beforeReads, beforeWrites := m.DRAM.Reads(), m.DRAM.Writes()
	var beforeDecisions int
	if m.Dynamic != nil {
		beforeDecisions = len(m.Dynamic.History())
	}
	var beforeFlush uint64
	if m.Dynamic != nil {
		beforeFlush = m.Dynamic.FlushWritebacks()
	}

	measured := f.run(m, measureAccesses)
	m.Hier.Advance(m.CPU.Now())

	rep := RunReport{
		Machine:          m.Config.Name,
		Workload:         name,
		CPU:              measured,
		L2:               subL2Stats(m.L2.Stats(), before.L2),
		Energy:           subEnergy(m.Hier.Energy(), before.Energy),
		L2InstalledBytes: m.L2.SizeBytes(),
		L2PoweredBytes:   m.L2.PoweredBytes(),
		DRAMReads:        m.DRAM.Reads() - beforeReads,
		DRAMWrites:       m.DRAM.Writes() - beforeWrites,
	}
	if m.Dynamic != nil {
		hist := m.Dynamic.History()
		rep.History = hist[beforeDecisions:]
		rep.FlushWritebacks = m.Dynamic.FlushWritebacks() - beforeFlush
	}
	return rep
}

// RunWarmWorkload is the convenience wrapper mirroring RunWorkload: it
// builds the machine, generates warmup+measure accesses of the app and
// measures only the post-warmup portion.
func RunWarmWorkload(cfg config.Machine, prof workload.Profile, seed uint64, warmup, measure int) (RunReport, error) {
	if err := chaosEnter(cfg.Name, prof.Name, seed); err != nil {
		return RunReport{}, err
	}
	m, err := Build(cfg)
	if err != nil {
		return RunReport{}, err
	}
	total := warmup + measure
	gen, err := workload.NewGenerator(prof, seed, workload.PhaseLen(prof, total))
	if err != nil {
		return RunReport{}, err
	}
	src := trace.NewLimitSource(gen, total)
	return auditExit(RunWarm(m, prof.Name, src, uint64(warmup), uint64(measure)), nil)
}

// RunWarmWorkloadFrom is the store-aware variant of RunWarmWorkload:
// the warmup+measure stream comes from the shared trace arena and is
// replayed through one stateful cursor (hot-tier zero-copy when
// resident, packed otherwise). A nil store falls back to the
// generator-driven path.
func RunWarmWorkloadFrom(store *tracestore.Store, cfg config.Machine, prof workload.Profile, seed uint64, warmup, measure int) (RunReport, error) {
	if store == nil {
		return RunWarmWorkload(cfg, prof, seed, warmup, measure)
	}
	return RunCell(store, Cell{Config: cfg, Profile: prof, Seed: seed, Accesses: measure, Warmup: warmup})
}

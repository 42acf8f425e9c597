package experiments

import (
	"fmt"

	"mobilecache/internal/cache"
	"mobilecache/internal/config"
	"mobilecache/internal/core"
	"mobilecache/internal/energy"
	"mobilecache/internal/engine"
	"mobilecache/internal/report"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
)

func init() {
	register("E1", "Kernel share of L2 accesses per app",
		"more than 40% of L2 cache accesses are OS kernel accesses on average",
		runE1)
	register("E2", "User/kernel interference in the shared L2",
		"kernel accesses cause unnecessary replacements of user blocks and vice versa, inflating the L2 miss rate",
		runE2)
	register("E3", "Miss rate vs. segment size (static partition sizing)",
		"partitioned segments can shrink the total capacity below the baseline while keeping a similar miss rate",
		runE3)
	register("E4", "Block lifetime and write-interval distributions per segment",
		"kernel blocks live briefly and are rewritten often; user blocks live longer — motivating multi-retention STT-RAM",
		runE4)
}

// runE1 reproduces the motivation figure: the kernel fraction of L2
// accesses for each interactive app on the baseline machine.
func runE1(opts Options) (Result, error) {
	var res Result
	tb := report.NewTable("E1: kernel share of L2 accesses (baseline 1MB SRAM L2)",
		"app", "L2 accesses", "kernel share", "trace kernel share")
	var cells []engine.Cell
	for i, app := range opts.Apps {
		cells = append(cells, cell(config.Default(), app, appSeed(opts.Seed, i)))
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	sum := 0.0
	for i, app := range opts.Apps {
		rep := reps[i]
		share := rep.L2.KernelShare()
		sum += share
		// Trace-level share for contrast (L1 filtering shifts it).
		tr, err := opts.eng().Store().GetTrace(app, appSeed(opts.Seed, i), opts.Accesses)
		if err != nil {
			return res, err
		}
		traceShare := trace.Summarize(tr.Cursor()).KernelShare()
		tb.AddRow(app.Name, fmt.Sprint(rep.L2.TotalAccesses()), report.Pct(share), report.Pct(traceShare))
		res.addValue("l2_kernel_share_"+app.Name, share)
	}
	avg := sum / float64(len(opts.Apps))
	tb.AddRow("average", "", report.Pct(avg), "")
	res.Tables = append(res.Tables, tb)
	res.addValue("avg_l2_kernel_share", avg)
	res.addNote("average kernel share of L2 accesses: %s (paper: >40%%)", report.Pct(avg))
	return res, nil
}

// runE2 quantifies cross-domain interference: the shared baseline vs a
// same-total-capacity static partition (512KB+512KB), so the only
// change is isolation.
func runE2(opts Options) (Result, error) {
	var res Result
	iso := config.Default()
	iso.Name = "sp-equal"
	iso.Scheme = config.SchemeStatic
	iso.Unified = nil
	iso.User = &config.Segment{Name: "L2-user", SizeKB: 512, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "sram", Refresh: "dirty-only"}
	iso.Kernel = &config.Segment{Name: "L2-kernel", SizeKB: 512, Ways: 16, BlockBytes: 64, Policy: "lru", Tech: "sram", Refresh: "dirty-only"}

	tb := report.NewTable("E2: interference in the shared L2 (1MB shared vs 512KB+512KB isolated)",
		"app", "shared missrate", "isolated missrate", "interference evictions", "per 1k accesses")
	var cells []engine.Cell
	for i, app := range opts.Apps {
		seed := appSeed(opts.Seed, i)
		cells = append(cells, cell(config.Default(), app, seed), cell(iso, app, seed))
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	var missDeltaSum, interfSum float64
	for i, app := range opts.Apps {
		shared, isolated := reps[2*i], reps[2*i+1]
		per1k := float64(shared.L2.InterferenceEvictions) / float64(shared.L2.TotalAccesses()) * 1000
		tb.AddRow(app.Name,
			report.Pct(shared.L2.MissRate()),
			report.Pct(isolated.L2.MissRate()),
			fmt.Sprint(shared.L2.InterferenceEvictions),
			fmt.Sprintf("%.1f", per1k))
		missDeltaSum += shared.L2.MissRate() - isolated.L2.MissRate()
		interfSum += per1k
	}
	res.Tables = append(res.Tables, tb)
	n := float64(len(opts.Apps))
	res.addValue("avg_missrate_delta", missDeltaSum/n)
	res.addValue("avg_interference_per_1k", interfSum/n)
	res.addNote("isolating the domains removes all %0.f interference evictions per 1k L2 accesses (avg) and changes the miss rate by %+.2f points",
		interfSum/n, missDeltaSum/n*100)
	return res, nil
}

// runE3 runs the sizing search on a representative app's captured L2
// stream: the per-domain miss curves and the chosen shrunk segments.
func runE3(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]

	// Capture the L2-level stream from a baseline run. Not an engine
	// cell: it needs the L2 tap, which a RunReport does not carry.
	m, err := sim.Build(config.Default())
	if err != nil {
		return res, err
	}
	var l2stream []trace.Access
	m.Hier.L2Tap = func(a trace.Access) { l2stream = append(l2stream, a) }
	if _, err := replayOn(opts, m, app, appSeed(opts.Seed, 0)); err != nil {
		return res, err
	}

	baseline := core.SegmentConfig{Name: "base", SizeBytes: 1024 * 1024, Ways: 16, BlockBytes: 64, Policy: cache.LRU}
	candidates := []uint64{64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024}
	sizing, err := core.ChooseStaticSizes(l2stream, baseline, candidates, 0.02)
	if err != nil {
		return res, err
	}

	tb := report.NewTable(fmt.Sprintf("E3: miss rate vs segment size (app %s, %d L2 accesses)", app.Name, len(l2stream)),
		"segment size", "user missrate", "kernel missrate")
	for i := range sizing.UserCurve {
		tb.AddRow(report.Bytes(sizing.UserCurve[i].SizeBytes),
			report.Pct(sizing.UserCurve[i].MissRate),
			report.Pct(sizing.KernelCurve[i].MissRate))
	}
	res.Tables = append(res.Tables, tb)

	pick := report.NewTable("E3: chosen partition (tolerance 2 points of miss rate)",
		"quantity", "value")
	pick.AddRow("baseline miss rate", report.Pct(sizing.BaselineMissRate))
	pick.AddRow("chosen user segment", report.Bytes(sizing.UserSize))
	pick.AddRow("chosen kernel segment", report.Bytes(sizing.KernelSize))
	pick.AddRow("partition total", report.Bytes(sizing.TotalSize()))
	pick.AddRow("partition miss rate", report.Pct(sizing.CombinedMissRate))
	res.Tables = append(res.Tables, pick)

	res.addValue("baseline_missrate", sizing.BaselineMissRate)
	res.addValue("partition_missrate", sizing.CombinedMissRate)
	res.addValue("total_size_bytes", float64(sizing.TotalSize()))
	res.addValue("shrink_fraction", 1-float64(sizing.TotalSize())/float64(baseline.SizeBytes))
	res.addNote("the partition needs %s vs the 1MB baseline (%.0f%% smaller) at a %.2f-point miss-rate change",
		report.Bytes(sizing.TotalSize()),
		(1-float64(sizing.TotalSize())/float64(baseline.SizeBytes))*100,
		(sizing.CombinedMissRate-sizing.BaselineMissRate)*100)
	return res, nil
}

// runE4 measures per-segment block lifetimes and write intervals on the
// static partition, the behaviour gap that motivates multi-retention
// STT-RAM.
func runE4(opts Options) (Result, error) {
	var res Result
	spCfg, err := sim.MachineByName("sp")
	if err != nil {
		return res, err
	}

	shortRet := energy.DefaultParams(energy.STTShort).RetentionCycles
	msRet := energy.Cycles(2.65e-3) // the ms-class point the DP-SR design uses
	medRet := energy.DefaultParams(energy.STTMedium).RetentionCycles
	shortExp := log2ceil(shortRet)
	msExp := log2ceil(msRet)
	medExp := log2ceil(medRet)

	tb := report.NewTable("E4: block lifetime and write-interval behaviour per segment",
		"app", "segment", "mean lifetime (cyc)", "P[life<short-ret]", "P[life<ms-ret]", "P[life<med-ret]", "mean write gap (cyc)")
	// One row per segment: its lifetime CDF points and mean write gap.
	type segRow struct {
		mean, belowShort, belowMs, belowMed, gap float64
	}
	domains := []trace.Domain{trace.User, trace.Kernel}
	// Not engine cells: each run reads the segment caches' lifetime and
	// write-interval histograms, which a RunReport does not carry.
	perApp, err := fanOut(opts, "E4", len(opts.Apps), func(i int) ([]segRow, error) {
		m, err := sim.Build(spCfg)
		if err != nil {
			return nil, err
		}
		if _, err := replayOn(opts, m, opts.Apps[i], appSeed(opts.Seed, i)); err != nil {
			return nil, err
		}
		runCycles := float64(m.CPU.Now())
		rows := make([]segRow, len(domains))
		for j, d := range domains {
			cs := m.Static.SegmentCache(d).Stats()
			lt := cs.Lifetimes[d]
			// A segment with no evictions means every block outlived
			// the run: treat its lifetime as the whole run (a lower
			// bound) and its sub-retention CDFs per the run length.
			r := segRow{mean: lt.Mean(), belowShort: lt.CDFBelow(shortExp), belowMs: lt.CDFBelow(msExp),
				belowMed: lt.CDFBelow(medExp), gap: cs.WriteIntervals[d].Mean()}
			if lt.Total == 0 {
				r.mean = runCycles
				r.belowShort = boolToFrac(runCycles < float64(shortRet))
				r.belowMs = boolToFrac(runCycles < float64(msRet))
				r.belowMed = boolToFrac(runCycles < float64(medRet))
			}
			rows[j] = r
		}
		return rows, nil
	})
	if err != nil {
		return res, err
	}
	var userBelowMed, kernelBelowShort, kernelBelowMs, userBelowMs float64
	var userGap, kernelGap, userLife, kernelLife float64
	for i, app := range opts.Apps {
		for j, d := range domains {
			r := perApp[i][j]
			tb.AddRow(app.Name, d.String(),
				fmt.Sprintf("%.0f", r.mean),
				report.Pct(r.belowShort),
				report.Pct(r.belowMs),
				report.Pct(r.belowMed),
				fmt.Sprintf("%.0f", r.gap))
			if d == trace.User {
				userBelowMed += r.belowMed
				userBelowMs += r.belowMs
				userGap += r.gap
				userLife += r.mean
			} else {
				kernelBelowShort += r.belowShort
				kernelBelowMs += r.belowMs
				kernelGap += r.gap
				kernelLife += r.mean
			}
		}
	}
	res.Tables = append(res.Tables, tb)
	n := float64(len(opts.Apps))
	res.addValue("kernel_life_below_short_ret", kernelBelowShort/n)
	res.addValue("kernel_life_below_ms_ret", kernelBelowMs/n)
	res.addValue("user_life_below_ms_ret", userBelowMs/n)
	res.addValue("user_life_below_med_ret", userBelowMed/n)
	res.addValue("kernel_mean_write_gap", kernelGap/n)
	res.addValue("user_mean_write_gap", userGap/n)
	res.addValue("kernel_mean_lifetime", kernelLife/n)
	res.addValue("user_mean_lifetime", userLife/n)
	res.addNote("kernel blocks live %.0f cycles on average vs %.0f for user blocks; %s of kernel and %s of user lifetimes fit a millisecond retention window",
		kernelLife/n, userLife/n, report.Pct(kernelBelowMs/n), report.Pct(userBelowMs/n))
	return res, nil
}

func boolToFrac(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func log2ceil(x uint64) int {
	n := 0
	for (uint64(1) << uint(n)) < x {
		n++
	}
	return n
}

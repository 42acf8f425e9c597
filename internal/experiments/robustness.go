package experiments

import (
	"fmt"

	"mobilecache/internal/engine"
	"mobilecache/internal/report"
	"mobilecache/internal/stats"
)

func init() {
	register("T3", "Seed robustness of the headline results",
		"the savings/loss comparison must not depend on one particular synthetic trace instantiation",
		runT3)
}

// runT3 repeats the T2 comparison across several workload seeds and
// reports mean and standard deviation of each scheme's saving and loss.
func runT3(opts Options) (Result, error) {
	var res Result
	seeds := []uint64{opts.Seed, opts.Seed + 100, opts.Seed + 200}

	type agg struct{ saving, loss stats.Mean }
	byScheme := map[string]*agg{}
	for _, s := range proposedSchemes {
		byScheme[s] = &agg{}
	}

	// Every seed's matrix runs in one engine plan.
	var cells []engine.Cell
	for _, seed := range seeds {
		sub := opts
		sub.Seed = seed
		c, err := matrixCells(sub, allSchemes)
		if err != nil {
			return res, err
		}
		cells = append(cells, c...)
	}
	reps, err := runCells(opts, cells)
	if err != nil {
		return res, err
	}
	per := len(cells) / len(seeds)
	for k := range seeds {
		mx := byMachine(cells[k*per:(k+1)*per], reps[k*per:(k+1)*per])
		for _, scheme := range proposedSchemes {
			var normE, normI []float64
			for _, app := range appNames(opts) {
				base := mx["baseline-sram"][app]
				rep := mx[scheme][app]
				normE = append(normE, rep.L2EnergyJ()/base.L2EnergyJ())
				normI = append(normI, rep.IPC()/base.IPC())
			}
			byScheme[scheme].saving.Observe(1 - stats.GeoMean(normE))
			byScheme[scheme].loss.Observe(1 - stats.GeoMean(normI))
		}
	}

	tb := report.NewTable(fmt.Sprintf("T3: robustness over %d seeds (geomean over apps per seed)", len(seeds)),
		"scheme", "saving mean", "saving stddev", "loss mean", "loss stddev")
	for _, scheme := range proposedSchemes {
		a := byScheme[scheme]
		tb.AddRow(scheme,
			report.Pct(a.saving.Value()), fmt.Sprintf("%.4f", a.saving.StdDev()),
			report.Pct(a.loss.Value()), fmt.Sprintf("%.4f", a.loss.StdDev()))
		res.addValue("saving_mean_"+scheme, a.saving.Value())
		res.addValue("saving_stddev_"+scheme, a.saving.StdDev())
		res.addValue("loss_mean_"+scheme, a.loss.Value())
	}
	res.Tables = append(res.Tables, tb)
	res.addNote("saving standard deviations across seeds are ~%.3f for sp-mr and ~%.3f for dp-sr — the conclusions do not hinge on one trace draw",
		byScheme["sp-mr"].saving.StdDev(), byScheme["dp-sr"].saving.StdDev())
	return res, nil
}

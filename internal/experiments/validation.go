package experiments

import (
	"fmt"

	"mobilecache/internal/report"
	"mobilecache/internal/trace"
)

func init() {
	register("E19", "Workload validation: reuse-distance fingerprints",
		"the synthetic traces must exhibit the per-domain footprints and locality the substitution claims (DESIGN.md) — kernel sets small and reusable, user sets larger",
		runE19)
}

// runE19 fingerprints every app's generated trace with the streaming
// reuse-distance analyzer and notes whether the kernel footprint is
// the smaller one, as the partition sizing assumes.
func runE19(opts Options) (Result, error) {
	var res Result
	tb := report.NewTable("E19: per-domain reuse fingerprints of the generated traces",
		"app", "domain", "accesses", "footprint", "est hitrate @256KB", "@512KB", "@1MB")
	blocks := func(bytes uint64) uint64 { return bytes / 64 }
	// The analysis reads the arena's copy of each app's trace, one app
	// per worker.
	analyses, err := fanOut(opts, "E19", len(opts.Apps), func(i int) (*trace.ReuseAnalyzer, error) {
		tr, err := opts.eng().Store().GetTrace(opts.Apps[i], appSeed(opts.Seed, i), opts.Accesses)
		if err != nil {
			return nil, err
		}
		return trace.Analyze(tr.Cursor(), 64), nil
	})
	if err != nil {
		return res, err
	}
	var userFPsum, kernelFPsum float64
	for i, app := range opts.Apps {
		ra := analyses[i]
		for _, d := range []trace.Domain{trace.User, trace.Kernel} {
			st := ra.Stats(d)
			fp := st.DistinctBlocks * 64
			tb.AddRow(app.Name, d.String(),
				fmt.Sprint(st.Accesses),
				report.Bytes(fp),
				report.Pct(st.HitRateAt(blocks(256<<10))),
				report.Pct(st.HitRateAt(blocks(512<<10))),
				report.Pct(st.HitRateAt(blocks(1<<20))))
			res.addValue(fmt.Sprintf("fp_%s_%s", app.Name, d), float64(fp))
			if d == trace.User {
				userFPsum += float64(fp)
			} else {
				kernelFPsum += float64(fp)
			}
		}
	}
	res.Tables = append(res.Tables, tb)
	n := float64(len(opts.Apps))
	userFP, kernelFP := userFPsum/n, kernelFPsum/n
	res.addValue("avg_user_footprint", userFP)
	res.addValue("avg_kernel_footprint", kernelFP)
	claim := "the kernel set is the smaller, denser one, as the partition sizing assumes"
	if kernelFP >= userFP {
		claim = "the kernel set is not the smaller one at this size and seed, so the partition sizing's assumption does not hold here"
	}
	res.addNote("average footprints: user %s, kernel %s — %s",
		report.Bytes(uint64(userFP)), report.Bytes(uint64(kernelFP)), claim)
	return res, nil
}

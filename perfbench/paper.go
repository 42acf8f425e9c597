package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/experiments"
)

// suiteSeed derives the seed experiments.Options uses for app i — the
// same rule the experiments apply internally, so the per-layer pass
// replays the suite's own traces.
func suiteSeed(base uint64, i int) uint64 { return base*1_000_003 + uint64(i)*7919 }

// suitePass is one run of every registered experiment on one fresh
// engine: per-experiment durations, the time to the first finished
// experiment and every experiment's headline values.
type suitePass struct {
	exp    map[string]time.Duration
	first  time.Duration
	values map[string]map[string]float64
}

// runSuite counts its experiment runs as attempted operations when
// count is set (the timed passes) and records every failure.
func runSuite(e *env, eng *engine.Engine, accesses int, parent int, count bool) suitePass {
	p := suitePass{
		exp:    map[string]time.Duration{},
		values: map[string]map[string]float64{},
	}
	opts := experiments.Options{Accesses: accesses, Seed: e.seed, Apps: experiments.QuickOptions().Apps, Engine: eng}
	start := time.Now()
	for _, id := range experiments.IDs() {
		sp := e.tr.begin("experiments.Run/"+id, parent)
		t0 := time.Now()
		res, err := experiments.Run(id, opts)
		d := time.Since(t0)
		e.tr.end(sp)
		if count {
			e.attempted++
		}
		if err != nil {
			if count {
				e.failed++
			}
			e.fail("experiment %s: %v", id, err)
			continue
		}
		if p.first == 0 {
			p.first = time.Since(start)
		}
		p.exp[id] = d
		p.values[id] = res.Values
	}
	return p
}

// sameValues compares two experiments' headline values bit for bit
// (NaN equals NaN).
func sameValues(a, b map[string]map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, va := range a {
		vb, ok := b[id]
		if !ok || len(va) != len(vb) {
			return false
		}
		for k, x := range va {
			y, ok := vb[k]
			if !ok || math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

// runPaperSuite regenerates the whole paper — every experiment,
// QuickOptions' apps, the benchmark seed — on a fresh engine per pass.
func runPaperSuite(e *env) error {
	var setups []float64
	for r := 0; r < e.size.setupReps; r++ {
		// Set-up warms the process: the suite at reduced length on a
		// throwaway engine, so lazy initialisation and heap growth are
		// not charged to the first timed pass.
		w := startWindow()
		runSuite(e, engine.New(engine.Config{Workers: e.workers}), e.size.warmAccesses, -1, false)
		setups = append(setups, e.setupSeconds(w))
	}

	var passes []suitePass
	// lastEng is the most recent pass's engine, whose arena and memo are
	// what a user holds after regenerating the paper.
	var lastEng *engine.Engine
	pass := func() error {
		sp := e.tr.begin("paper-suite.pass", -1)
		lastEng = engine.New(engine.Config{Workers: e.workers})
		p := runSuite(e, lastEng, e.size.suiteAccesses, sp, true)
		e.tr.end(sp)
		if len(passes) > 0 && !sameValues(passes[0].values, p.values) {
			e.fail("paper-suite pass %d: experiment values differ from pass 0 on the same seed", len(passes))
		}
		passes = append(passes, p)
		return nil
	}
	walls, factors, err := e.repeat(e.size.minPasses, pass)
	if err != nil {
		return err
	}
	t2 := passes[len(passes)-1].values["T2"]
	for _, s := range []string{"sp-mr", "dp-sr"} {
		saving, loss := t2["saving_"+s]*100, t2["perf_loss_"+s]*100
		if !(saving > 0 && saving < 100) || math.IsNaN(loss) || math.Abs(loss) >= 100 {
			e.fail("T2 %s: implausible saving %.3f%% / performance loss %.3f%%", s, saving, loss)
		}
	}

	if !e.traced {
		var exps, firsts []float64
		for i, p := range passes {
			for _, d := range p.exp {
				exps = append(exps, ms(d)*factors[i])
			}
			firsts = append(firsts, ms(p.first)*factors[i])
		}
		e.setScaled("setup_s", median(setups), "s")
		e.setScaled("wall_s", median(walls), "s")
		e.set("retained_mb", retainedMB(), "MB")
		runtime.KeepAlive(lastEng)
		e.setScaled("job_p50_ms", median(exps), "ms")
		e.setScaled("job_p90_ms", percentile(exps, 90), "ms")
		e.setScaled("first_result_p50_ms", median(firsts), "ms")
		setT2(e, t2["saving_sp-mr"], t2["saving_dp-sr"], t2["perf_loss_sp-mr"], t2["perf_loss_dp-sr"])
		fmt.Fprintf(e.log, "experiment runs: %d over %d passes (p90 has %d samples beyond it)\n",
			len(exps), len(passes), len(exps)-int(math.Ceil(0.9*float64(len(exps)))))
		return nil
	}

	untracedWall := median(walls)
	e.tr = newTracer()
	tracedWalls, _, err := e.repeat(e.size.minPasses, pass)
	if err != nil {
		return err
	}
	e.set("tracing.overhead_pct", (median(tracedWalls)/untracedWall-1)*100, "%")
	for _, id := range experiments.IDs() {
		e.set("experiments."+id+"_s", median(e.tr.durations("experiments.Run/"+id, time.Second)), "s")
	}
	setArenaMetrics(e, lastEng.Store().Stats(), lastEng.MemoStats())

	// The experiments drive the engine without a caller-supplied gate,
	// so cell times come from the suite's main matrix (every standard
	// machine over the suite's traces) executed with the benchmark's.
	apps := experiments.QuickOptions().Apps
	var traces []traceRef
	for i, app := range apps {
		traces = append(traces, traceRef{app, suiteSeed(e.seed, i)})
	}
	if err := layerPass(e, traces, e.size.suiteAccesses, nil, nil); err != nil {
		return err
	}
	return daemonProbe(e)
}

// setT2 records the paper's headline figures for the static (sp-mr)
// and dynamic (dp-sr) designs against baseline-sram, as percentages —
// the L2 energy saving and the IPC kept (100 minus the performance
// loss) — and prints them beside the paper's.
func setT2(e *env, saveSP, saveDP, lossSP, lossDP float64) {
	e.set("l2_saving_sp-mr_pct", saveSP*100, "%")
	e.set("l2_saving_dp-sr_pct", saveDP*100, "%")
	e.set("ipc_norm_sp-mr_pct", (1-lossSP)*100, "%")
	e.set("ipc_norm_dp-sr_pct", (1-lossDP)*100, "%")
	fmt.Fprintf(e.log, "simulated: sp-mr saves %.2f%% of L2 energy at %.2f%% IPC loss (paper: ~75%% at ~2%%)\n", saveSP*100, lossSP*100)
	fmt.Fprintf(e.log, "simulated: dp-sr saves %.2f%% of L2 energy at %.2f%% IPC loss (paper: ~85%% at ~3%%)\n", saveDP*100, lossDP*100)
	fmt.Fprintln(e.log, "note: the model is not validated against hardware; these are simulator outputs, not measurements")
}

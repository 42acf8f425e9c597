package experiments

// Equivalence tests for the engine refactor: the experiments package
// used to drive its matrices through a hand-wired worker pool plus a
// package-global name-keyed run cache; it now goes through
// internal/engine. These tests pin the contract that the move changed
// nothing observable — matrix output is deeply equal to direct
// sim.RunWorkload calls — and that the one intended change (the
// name-keyed cache's staleness bug) is actually fixed.

import (
	"errors"
	"reflect"
	"testing"

	"mobilecache/internal/engine"
	"mobilecache/internal/runner"
	"mobilecache/internal/sim"
)

// TestMatrixMatchesDirectRuns: matrix() over the canonical scheme list
// returns, for every (machine, app), a report deeply equal to a direct
// sim.RunWorkload with the same derived seed.
func TestMatrixMatchesDirectRuns(t *testing.T) {
	opts := QuickOptions()
	opts.Engine = engine.New(engine.Config{}) // isolate from the shared default engine
	got, err := matrix(opts, allSchemes)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range allSchemes {
		cfg, err := sim.MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, app := range opts.Apps {
			want, err := sim.RunWorkload(cfg, app, appSeed(opts.Seed, i), opts.Accesses)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[name][app.Name], want) {
				t.Fatalf("matrix report for %s/%s diverges from direct sim.RunWorkload", name, app.Name)
			}
		}
	}
}

// TestCachedRunMatchesDirect: the engine-backed cell path returns
// the same report as a cold direct run, on the first call and on the
// memo-served repeat.
func TestCachedRunMatchesDirect(t *testing.T) {
	opts := QuickOptions()
	opts.Engine = engine.New(engine.Config{})
	app := opts.Apps[1]
	cfg, err := sim.MachineByName("dp-sr")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunWorkload(cfg, app, 42, opts.Accesses)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := runCells(opts, []engine.Cell{cell(cfg, app, 42)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Fatalf("runCells pass %d diverges from direct sim.RunWorkload", pass)
		}
	}
}

// TestRunWorkloadNoStaleCache is the regression test for the old
// package-global runCache: it keyed on (machine name, app name, seed,
// accesses), so a profile whose content changed under an unchanged
// name was served the previous profile's report. The engine memo keys
// on a content hash, so the perturbed profile must get a fresh,
// correct run.
func TestRunWorkloadNoStaleCache(t *testing.T) {
	opts := QuickOptions()
	opts.Engine = engine.New(engine.Config{})
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	app := opts.Apps[0]
	base, err := runCells(opts, []engine.Cell{cell(cfg, app, 1)})
	if err != nil {
		t.Fatal(err)
	}

	perturbed := app
	perturbed.KernelShare += 0.2 // same Name, different content
	reps, err := runCells(opts, []engine.Cell{cell(cfg, perturbed, 1)})
	if err != nil {
		t.Fatal(err)
	}
	got := reps[0]
	if reflect.DeepEqual(got, base[0]) {
		t.Fatal("content-modified profile was served the stale report")
	}
	want, err := sim.RunWorkload(cfg, perturbed, 1, opts.Accesses)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("perturbed-profile report diverges from direct simulation")
	}
}

// TestMatrixDeterministicAcrossEngines: two fresh engines (cold memo,
// cold arena) and the shared default produce identical matrices — the
// engine is an optimization, never an input.
func TestMatrixDeterministicAcrossEngines(t *testing.T) {
	opts := QuickOptions()
	runs := make([]map[string]map[string]sim.RunReport, 3)
	for i := range runs {
		o := opts
		if i < 2 {
			o.Engine = engine.New(engine.Config{})
		} // i == 2 uses the package default engine
		m, err := matrix(o, proposedSchemes)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = m
	}
	if !reflect.DeepEqual(runs[0], runs[1]) || !reflect.DeepEqual(runs[0], runs[2]) {
		t.Fatal("matrix output depends on which engine ran it")
	}
}

// TestExperimentValuesEngineIndependent: a representative experiment's
// headline values are identical whether run on a dedicated engine or
// the shared default — the guarantee mcbench relies on when wiring one
// engine across every experiment of a process.
func TestExperimentValuesEngineIndependent(t *testing.T) {
	opts := QuickOptions()
	dedicated := opts
	dedicated.Engine = engine.New(engine.Config{})
	a, err := Run("E7", dedicated)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("E7", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Values, b.Values) {
		t.Fatalf("E7 values depend on the engine:\n%v\n%v", a.Values, b.Values)
	}
	var tbA, tbB []string
	for _, tb := range a.Tables {
		tbA = append(tbA, tb.String())
	}
	for _, tb := range b.Tables {
		tbB = append(tbB, tb.String())
	}
	if !reflect.DeepEqual(tbA, tbB) {
		t.Fatal("E7 rendered tables depend on the engine")
	}
}

// TestFanOutOrderAndContainment: custom-machine jobs come back in job
// order however the workers interleave them, and a panicking job
// becomes an error instead of crashing the process.
func TestFanOutOrderAndContainment(t *testing.T) {
	opts := QuickOptions()
	opts.Engine = engine.New(engine.Config{Workers: 4})
	got, err := fanOut(opts, "sq", 32, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("job %d returned %d, want %d", i, v, i*i)
		}
	}
	_, err = fanOut(opts, "boom", 8, func(i int) (int, error) {
		if i == 5 {
			panic("job 5")
		}
		return i, nil
	})
	var re *runner.RunError
	if !errors.As(err, &re) || !re.Panicked || re.Cell.Machine != "boom run 5" {
		t.Fatalf("panicking job: err = %v, want a contained panic of run 5", err)
	}
}

package engine

import (
	"context"
	"reflect"
	"testing"

	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

// testCell builds one standard-machine cell.
func testCell(t *testing.T, machine string, app int, seed uint64) Cell {
	t.Helper()
	cfg, err := sim.MachineByName(machine)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.Profiles()[app]
	return Cell{Machine: machine, Config: cfg, App: prof.Name, Profile: prof, Seed: seed}
}

// An enabled sampling spec must change the content key (a sampled
// estimate must never be served for a full run or vice versa), while a
// disabled spec must keep the historical key so legacy journals stay
// resumable.
func TestSampleKeyAliasing(t *testing.T) {
	c := testCell(t, "baseline-sram", 0, 1)
	legacy, err := keyOf(c, 10_000, 0, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []sample.Spec{{Factor: 1}, {Factor: 1, Hash: true}} {
		k, err := keyOf(c, 10_000, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		if k != legacy {
			t.Errorf("disabled spec %+v changed the content key", spec)
		}
	}
	seen := map[interface{}]string{legacy: "full"}
	for _, spec := range []sample.Spec{{Factor: 2}, {Factor: 8}, {Factor: 8, Hash: true}, {Factor: 128}} {
		k, err := keyOf(c, 10_000, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("spec %s key collides with %s", spec, prev)
		}
		seen[k] = spec.String()
	}
}

// A factor-1 sampled run through the engine is the unsampled run:
// identical report, same memo entry.
func TestRunOneSampledFactorOne(t *testing.T) {
	c := testCell(t, "sp-mr", 0, 3)
	full := New(Config{})
	want, err := full.RunOne(context.Background(), c, 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	got, err := fresh.RunOneSampled(context.Background(), c, 20_000, 0, sample.Spec{Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("factor-1 sampled engine run differs from unsampled run")
	}
}

// Execute with a sampled plan stamps the factor on every report and
// returns the same reports RunOneSampled produces for the same cells.
func TestExecuteSampledMatchesRunOne(t *testing.T) {
	plan := testPlan(t, []string{"baseline-stt", "dp"}, 2, []uint64{5}, 20_000)
	plan.Sample = sample.Spec{Factor: 8}
	e := New(Config{})
	col := NewCollector()
	if _, err := e.Execute(context.Background(), plan, ExecOptions{}, col); err != nil {
		t.Fatal(err)
	}
	if len(col.Results) != len(plan.Cells) {
		t.Fatalf("%d results, want %d", len(col.Results), len(plan.Cells))
	}
	fresh := New(Config{})
	for _, r := range col.Results {
		if r.Report.SampleFactor != 8 {
			t.Errorf("%s/%s: SampleFactor = %d, want 8", r.Cell.Machine, r.Cell.App, r.Report.SampleFactor)
		}
		want, err := fresh.RunOneSampled(context.Background(), r.Cell, plan.Accesses, 0, plan.Sample)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Report, want) {
			t.Errorf("%s/%s: Execute report differs from RunOneSampled", r.Cell.Machine, r.Cell.App)
		}
	}
}

// ValidateSample smoke: a small grid validates without execution
// errors, reports both arms' wall-clock, and covers every machine.
func TestValidateSampleSmoke(t *testing.T) {
	plan := testPlan(t, []string{"baseline-sram", "sp-mr"}, 2, []uint64{1}, 20_000)
	e := New(Config{})
	v, err := e.ValidateSample(context.Background(), plan, sample.Spec{Factor: 8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Machines) != 2 {
		t.Fatalf("%d machines validated, want 2", len(v.Machines))
	}
	for _, m := range v.Machines {
		if m.FullMissRate <= 0 || m.SampledMissRate <= 0 {
			t.Errorf("%s: degenerate miss rates %g/%g", m.Machine, m.FullMissRate, m.SampledMissRate)
		}
		if m.FullEnergyJ <= 0 || m.SampledEnergyJ <= 0 {
			t.Errorf("%s: degenerate energies %g/%g", m.Machine, m.FullEnergyJ, m.SampledEnergyJ)
		}
	}
	if v.FullWall <= 0 || v.SampledWall <= 0 {
		t.Errorf("wall clocks not recorded: full %v sampled %v", v.FullWall, v.SampledWall)
	}
	if err := v.Err(); err != nil {
		t.Errorf("loose tolerance breached: %v", err)
	}
	// A disabled spec is a caller bug.
	if _, err := e.ValidateSample(context.Background(), plan, sample.Spec{}, 0.02); err == nil {
		t.Error("disabled spec accepted")
	}
}

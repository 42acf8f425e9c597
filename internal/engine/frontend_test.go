package engine

import (
	"context"
	"reflect"
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/runner"
	"mobilecache/internal/sample"
	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

// frontVariantPlan crosses the seven standard machines plus four
// front-end variants (two with the prefetcher on, two with a 2-way
// L1D) with two apps and seeds {3, 3, 4}: the repeated seed makes
// duplicate traces and duplicate cells. Every front-end group — (app,
// seed) x {standard, prefetch, 2-way L1D} — holds at least two cells.
func frontVariantPlan(t *testing.T, accesses int) (Plan, int) {
	t.Helper()
	var specs []MachineSpec
	for _, cfg := range sim.StandardMachines() {
		specs = append(specs, MachineSpec{Label: cfg.Name, Config: cfg})
	}
	variant := func(base, label string, edit func(*config.Machine)) {
		cfg, err := sim.MachineByName(base)
		if err != nil {
			t.Fatal(err)
		}
		edit(&cfg)
		specs = append(specs, MachineSpec{Label: label, Config: cfg})
	}
	prefetch := func(m *config.Machine) { m.Prefetch = true }
	narrow := func(m *config.Machine) { m.L1D.Ways = 2 }
	variant("baseline-sram", "sram-prefetch", prefetch)
	variant("sp-mr", "sp-mr-prefetch", prefetch)
	variant("dp", "dp-l1d-2way", narrow)
	variant("baseline-stt", "stt-l1d-2way", narrow)
	p := Grid(specs, workload.Profiles()[:2], []uint64{3, 3, 4}, accesses, 0)
	const traces, frontVariants = 2 * 2, 3
	return p, traces * frontVariants
}

// TestSharedFrontEndsMatchRunOne: a plan whose cells share recorded
// front ends reports, cell for cell, exactly what a lone RunOne on a
// fresh engine reports — cold, warm and set-sampled — and records one
// stream per front-end group.
func TestSharedFrontEndsMatchRunOne(t *testing.T) {
	for _, mode := range []struct {
		name   string
		warmup int
		sample sample.Spec
	}{{name: "cold"}, {name: "warm", warmup: 2000}, {name: "sampled", sample: sample.Spec{Factor: 8}}} {
		t.Run(mode.name, func(t *testing.T) {
			p, groups := frontVariantPlan(t, 6000)
			p.Warmup, p.Sample = mode.warmup, mode.sample
			col := NewCollector()
			// No memo, so duplicate cells replay the stream too.
			sum, err := New(Config{Workers: 2, MemoCapacity: -1}).Execute(context.Background(), p, ExecOptions{}, col)
			if err != nil {
				t.Fatal(err)
			}
			if len(col.Results) != len(p.Cells) {
				t.Fatalf("%d results for %d cells", len(col.Results), len(p.Cells))
			}
			want := FrontEndStats{Built: uint64(groups), Reused: uint64(len(p.Cells) - groups)}
			if sum.FrontEnd != want {
				t.Fatalf("front ends %+v, want %+v", sum.FrontEnd, want)
			}
			for i, c := range p.Cells {
				ref, err := New(Config{}).RunOneSampled(context.Background(), c, p.Accesses, p.Warmup, p.Sample)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(col.Results[i].Report, ref) {
					t.Fatalf("cell %d (%s/%s/%d): shared-front-end report differs from RunOne", i, c.Machine, c.App, c.Seed)
				}
			}
		})
	}
}

// TestSharedFrontEndsBounded: a 40-trace x 7-machine plan in
// machine-major order at 2 workers records each trace's stream once
// and never holds more than 2x workers streams at a time.
func TestSharedFrontEndsBounded(t *testing.T) {
	const workers = 2
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = uint64(100 + i)
	}
	p := testPlan(t, sim.StandardMachineNames(), 1, seeds, 1500)
	sum, err := New(Config{Workers: workers}).Execute(context.Background(), p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (FrontEndStats{Built: 40, Reused: 240}); sum.FrontEnd != want {
		t.Fatalf("front ends %+v, want %+v", sum.FrontEnd, want)
	}
	if sum.peakStreams > 2*workers {
		t.Fatalf("held %d streams at once, bound is %d", sum.peakStreams, 2*workers)
	}
}

// TestDispatchOrder: each group's first cell runs `lead` groups ahead
// of the group before it; singleton groups keep plan order.
func TestDispatchOrder(t *testing.T) {
	// Machine-major: 3 machines x groups A, B, C.
	groupOf := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	got := dispatchOrder(groupOf, 3, 2)
	want := []int{0, 1, 2, 3, 6, 4, 7, 5, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if got := dispatchOrder([]int{0, 1, 2, 3}, 4, 2); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("singleton order %v, want plan order", got)
	}
}

// TestFrontEndRecordingNotKeptOnFailure: a recording cell that fails,
// or is cancelled, leaves no stream behind, so the next cell that
// needs it records it again.
func TestFrontEndRecordingNotKeptOnFailure(t *testing.T) {
	p := testPlan(t, []string{"baseline-sram", "sp-mr"}, 1, []uint64{9}, 3000)
	f, err := newFrontEnds(New(Config{}), p, make([]bool, len(p.Cells)), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := f.group[0]
	if g == nil || f.group[1] != g {
		t.Fatal("both machines should share one front-end group")
	}
	check := func(stage string, wantStream bool) {
		t.Helper()
		live := 0
		if wantStream {
			live = 1
		}
		if g.wait != nil || f.live != live || (g.stream != nil) != wantStream {
			t.Fatalf("%s: recording=%v live=%d stream=%v", stage, g.wait != nil, f.live, g.stream != nil)
		}
	}

	good := f.cells[0]
	f.cells[0].Config.L1D.Ways = 3 // an invalid geometry: the machine build fails
	if _, err := f.run(context.Background(), 0); err == nil {
		t.Fatal("an invalid machine ran")
	}
	check("after a failed recording", false)

	f.cells[0] = good
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.run(ctx, 0); err != nil {
		t.Fatalf("the cancelled cell's own run: %v", err)
	}
	check("after a cancelled recording", false)

	want, err := f.run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	check("after a good recording", true)
	got, err := f.run(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref, _ := sim.RunCell(f.store, f.cells[1]); !reflect.DeepEqual(got, ref) {
		t.Fatal("the replaying cell reports differently from a whole run")
	}
	if want.CPU.Instructions != got.CPU.Instructions || want.CPU.Accesses != got.CPU.Accesses {
		t.Fatal("the two machines disagree on the front end's instructions or accesses")
	}
	if st, _ := f.stats(); st != (FrontEndStats{Built: 1, Reused: 1}) {
		t.Fatalf("stats %+v, want 1 built, 1 reused", st)
	}
	f.done(0, nil)
	f.done(1, runner.Transient(context.DeadlineExceeded))
	check("while a retryable cell still holds it", true)
	f.done(1, nil)
	check("after the last cell", false)
}

// TestSharedFrontEndsChaosRetry: cells that fail transiently on their
// first attempt retry against the shared stream and report exactly
// what an undisturbed execution reports.
func TestSharedFrontEndsChaosRetry(t *testing.T) {
	p := testPlan(t, sim.StandardMachineNames(), 2, []uint64{5}, 3000)
	ref := NewCollector()
	if _, err := New(Config{Workers: 2}).Execute(context.Background(), p, ExecOptions{}, ref); err != nil {
		t.Fatal(err)
	}

	restore := sim.InstallChaos(&sim.Chaos{FlakyRate: 0.5, Seed: 7})
	defer restore()
	col := NewCollector()
	sum, err := New(Config{Workers: 2, Retries: 1, Backoff: 1}).Execute(context.Background(), p, ExecOptions{}, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Manifest.Failed) != 0 {
		t.Fatalf("%d cells failed after retry", len(sum.Manifest.Failed))
	}
	if sum.FrontEnd.Built != 2 {
		t.Fatalf("built %d streams for 2 traces", sum.FrontEnd.Built)
	}
	if !reflect.DeepEqual(col.Results, ref.Results) {
		t.Fatal("retried cells report differently from an undisturbed execution")
	}
}

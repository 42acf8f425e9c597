// Performance contract of the execution pipeline (internal/engine over
// internal/tracestore) and the zero-allocation replay hot path. Two
// claims are checked and recorded in BENCH_PR4.json:
//
//  1. replaying a packed trace through a machine allocates nothing per
//     access (BenchmarkPackedReplay with -benchmem), and
//  2. a standard-machine x app matrix at -jobs=4 runs materially faster
//     through the engine (all cells sharing its trace arena) than
//     hand-wired with per-cell trace regeneration — i.e. the engine
//     refactor preserved the PR 2 arena speedup.
//
// Regenerate the JSON with
//
//	make bench-json    # = MC_BENCH_JSON=1 go test -run TestEmitBenchJSON -count=1 -v .
//
// EXPERIMENTS.md documents the methodology and the recorded numbers.
package mobilecache

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/runner"
	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// replayChunk is the packed-trace length the replay benchmark cycles
// through; large enough that per-report costs amortize to zero against
// the per-access path.
const replayChunk = 200_000

// benchReplay measures the cached-replay hot path: machine built once,
// trace packed once, then every iteration is one simulated access
// decoded straight from the arena. This is the per-cell marginal cost
// a sweep pays after the first machine has generated the trace.
func benchReplay(b *testing.B) {
	b.ReportAllocs()
	store := tracestore.New(0)
	prof := workload.Profiles()[0]
	packed, err := store.Get(prof, 1, replayChunk)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if n > replayChunk {
			n = replayChunk
		}
		cur := packed.Cursor()
		sim.RunTrace(m, "bench", &cur, uint64(n))
		done += n
	}
}

// BenchmarkPackedReplay is the -benchmem target for the zero-allocation
// claim: ns/op and allocs/op are per simulated access.
func BenchmarkPackedReplay(b *testing.B) { benchReplay(b) }

// matrixCells builds the quick-matrix grid: every standard machine on
// the first three app profiles, per-app seeds derived the same way the
// experiments derive them.
func matrixCells(apps []workload.Profile) []runner.Cell {
	var cells []runner.Cell
	for _, name := range sim.StandardMachineNames() {
		for i := range apps {
			cells = append(cells, runner.Cell{Machine: name, App: apps[i].Name, Seed: 1*1_000_003 + uint64(i)*7919})
		}
	}
	return cells
}

// runMatrixRegen is the reference arm: the same grid hand-wired on the
// bare worker pool with no trace arena, so every cell regenerates its
// trace — what a sweep cost before the shared arena existed.
func runMatrixRegen(tb testing.TB, apps []workload.Profile, accesses int) time.Duration {
	tb.Helper()
	profiles := make(map[string]workload.Profile, len(apps))
	for _, p := range apps {
		profiles[p.Name] = p
	}
	start := time.Now()
	_, err := runner.Run(context.Background(), runner.Config{Workers: 4}, matrixCells(apps),
		func(_ context.Context, _ int, c runner.Cell) (sim.RunReport, error) {
			cfg, err := sim.MachineByName(c.Machine)
			if err != nil {
				return sim.RunReport{}, err
			}
			return sim.RunWorkloadFrom(nil, cfg, profiles[c.App], c.Seed, accesses)
		})
	if err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// runMatrixEngine is the measured arm: the same grid through a fresh
// engine (cold arena, cold memo), exactly as the production front ends
// run it. Returns the wall clock and the arena stats.
func runMatrixEngine(tb testing.TB, apps []workload.Profile, accesses int) (time.Duration, tracestore.Stats) {
	tb.Helper()
	var cells []engine.Cell
	for _, name := range sim.StandardMachineNames() {
		cfg, err := sim.MachineByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range apps {
			cells = append(cells, engine.Cell{
				Machine: name, Config: cfg, App: apps[i].Name, Profile: apps[i],
				Seed: 1*1_000_003 + uint64(i)*7919,
			})
		}
	}
	eng := engine.New(engine.Config{Workers: 4})
	start := time.Now()
	sum, err := eng.Execute(context.Background(),
		engine.Plan{Cells: cells, Accesses: accesses}, engine.ExecOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return time.Since(start), sum.Store
}

// benchReport is the BENCH_PR4.json schema.
type benchReport struct {
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NsPerAccess    float64 `json:"replay_ns_per_access"`
	AllocsPerOp    int64   `json:"replay_allocs_per_access"`
	BytesPerOp     int64   `json:"replay_bytes_per_access"`
	Matrix         string  `json:"matrix"`
	MatrixWorkers  int     `json:"matrix_workers"`
	MatrixAccesses int     `json:"matrix_accesses_per_cell"`
	RegenSeconds   float64 `json:"matrix_regen_seconds"`
	CachedSeconds  float64 `json:"matrix_cached_seconds"`
	Speedup        float64 `json:"matrix_speedup"`
	Generated      uint64  `json:"store_generated"`
	Hits           uint64  `json:"store_hits"`
	Misses         uint64  `json:"store_misses"`
}

// TestEmitBenchJSON records the PR's performance evidence. It is a
// measurement, not a pass/fail gate on machine speed, so it only runs
// when explicitly requested:
//
//	MC_BENCH_JSON=1 go test -run TestEmitBenchJSON -count=1 -v .
func TestEmitBenchJSON(t *testing.T) {
	if os.Getenv("MC_BENCH_JSON") == "" {
		t.Skip("set MC_BENCH_JSON=1 to measure and write BENCH_PR4.json")
	}

	r := testing.Benchmark(benchReplay)
	rep := benchReport{
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NsPerAccess:    float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:    r.AllocsPerOp(),
		BytesPerOp:     r.AllocedBytesPerOp(),
		Matrix:         "7 standard machines x 3 apps",
		MatrixWorkers:  4,
		MatrixAccesses: 80_000,
	}

	apps := workload.Profiles()[:3]
	// Interleave three timing rounds and keep the best of each mode, so
	// one background hiccup cannot fabricate or erase the speedup. The
	// engine arm gets a fresh engine each round (cold arena and memo):
	// it measures one sweep's first pass, not memo replays.
	regen, cached := time.Duration(1<<62), time.Duration(1<<62)
	var st tracestore.Stats
	for round := 0; round < 3; round++ {
		if d := runMatrixRegen(t, apps, rep.MatrixAccesses); d < regen {
			regen = d
		}
		d, stats := runMatrixEngine(t, apps, rep.MatrixAccesses)
		if d < cached {
			cached = d
		}
		st = stats
	}
	rep.RegenSeconds = regen.Seconds()
	rep.CachedSeconds = cached.Seconds()
	rep.Speedup = regen.Seconds() / cached.Seconds()
	rep.Generated, rep.Hits, rep.Misses = st.Generated, st.Hits, st.Misses

	t.Logf("replay: %.1f ns/access, %d allocs/access", rep.NsPerAccess, rep.AllocsPerOp)
	t.Logf("matrix: regen %.3fs, cached %.3fs, speedup %.2fx (store: %d generated, %d hits)",
		rep.RegenSeconds, rep.CachedSeconds, rep.Speedup, rep.Generated, rep.Hits)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR4.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

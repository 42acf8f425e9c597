// Performance contract of the frame-batched replay kernel
// (mem.Front.Frame and mem.Hierarchy.Replay behind cpu.Run): the hot
// path decodes packed frames straight into precomputed records and
// replays L1 hits without a Lookup call, a Result struct, or any
// per-access stats or energy write. Two artifacts live here:
//
//   - TestReplaySmoke, the CI-safe structural gate (make
//     bench-replay-smoke): replay — both stages frame by frame, and
//     the back end alone from a recorded stream — must stay
//     allocation-free and under a budget ~40x above the recorded
//     steady state, so it catches a reintroduced per-access allocation
//     or interface round-trip without ever failing on a slow or noisy
//     runner.
//   - TestEmitBenchJSONPR10, the measurement emitter for
//     BENCH_PR10.json: minimum ns/access over several benchmark
//     rounds (the recording host is a 1-vCPU cloud machine with heavy
//     steal — the minimum estimates the true cost, the median the
//     experience; EXPERIMENTS.md documents the protocol).
//
// Regenerate the JSON with
//
//	make bench-json    # includes TestEmitBenchJSONPR10
package mobilecache

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mobilecache/internal/sim"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// replaySmokeBudgetNs is the structural ceiling for the smoke gate:
// generous enough that no healthy build on any CI runner approaches
// it (recorded steady state is ~50 ns/access on the slowest host this
// repo has seen), low enough that a per-access allocation, a decode
// regression to per-record interface calls, or an accidental
// quadratic would blow through it.
const replaySmokeBudgetNs = 2000

// TestReplaySmoke is the bench-replay-smoke CI gate.
func TestReplaySmoke(t *testing.T) {
	const accesses = 200_000
	store := tracestore.New(0)
	prof := workload.Profiles()[0]
	packed, err := store.Get(prof, 1, accesses)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sim.MachineByName("baseline-sram")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Allocation structure: a replay allocates O(1) per run (the report
	// and its histograms), never O(accesses). The budget is hundreds of
	// allocations against hundreds of thousands of accesses, so any
	// per-access allocation fails by three orders of magnitude.
	allocs := testing.AllocsPerRun(3, func() {
		cur := packed.Cursor()
		sim.RunTrace(m, "smoke", &cur, accesses)
	})
	if allocs > 500 {
		t.Errorf("replay of %d accesses allocated %.0f times; per-access allocation regression", accesses, allocs)
	}

	// Throughput structure: best of three rounds against the ~40x
	// budget, so scheduler noise cannot fail a healthy build.
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		cur := packed.Cursor()
		start := time.Now()
		sim.RunTrace(m, "smoke", &cur, accesses)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	nsPerAccess := float64(best.Nanoseconds()) / float64(accesses)
	t.Logf("replay smoke: %.1f ns/access (budget %d), %.0f allocs/run", nsPerAccess, replaySmokeBudgetNs, allocs)
	if nsPerAccess > replaySmokeBudgetNs {
		t.Errorf("replay at %.1f ns/access exceeds the %d ns structural budget", nsPerAccess, replaySmokeBudgetNs)
	}

	// The back end alone, replaying a stream another machine's front end
	// recorded: the same gates. Each replay needs a cold machine, so the
	// machines are built outside the measured calls (AllocsPerRun makes
	// one warm-up call plus the counted ones).
	rec, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := packed.Cursor()
	_, seg := rec.CPU.Record(&cur, accesses)
	fresh := make([]*sim.Machine, 4+3)
	for i := range fresh {
		if fresh[i], err = sim.Build(cfg); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	replay := func() {
		fresh[next].CPU.Replay(&seg)
		next++
	}
	if allocs := testing.AllocsPerRun(3, replay); allocs > 500 {
		t.Errorf("stream replay of %d accesses allocated %.0f times; per-access allocation regression", accesses, allocs)
	}
	best = time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		start := time.Now()
		replay()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	nsPerAccess = float64(best.Nanoseconds()) / float64(accesses)
	t.Logf("stream replay smoke: %.1f ns/access (budget %d)", nsPerAccess, replaySmokeBudgetNs)
	if nsPerAccess > replaySmokeBudgetNs {
		t.Errorf("stream replay at %.1f ns/access exceeds the %d ns structural budget", nsPerAccess, replaySmokeBudgetNs)
	}
}

// replayBenchReport is the BENCH_PR10.json schema.
type replayBenchReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// MinNsPerAccess is the minimum over Rounds benchmark rounds — the
	// steal-noise-resistant estimate of the true per-access cost on
	// this host. MedianNsPerAccess is the middle round, recorded so the
	// noise floor is visible in the artifact.
	MinNsPerAccess    float64 `json:"replay_min_ns_per_access"`
	MedianNsPerAccess float64 `json:"replay_median_ns_per_access"`
	Rounds            int     `json:"rounds"`
	AllocsPerOp       int64   `json:"replay_allocs_per_access"`

	// PR9NsPerAccess is the number BENCH_PR9.json recorded for the same
	// benchmark before the frame kernel; SpeedupVsPR9 is against the
	// minimum.
	PR9NsPerAccess float64 `json:"pr9_ns_per_access"`
	SpeedupVsPR9   float64 `json:"speedup_vs_pr9"`
}

// TestEmitBenchJSONPR10 records the frame-kernel PR's performance
// evidence. Like the other emitters it is a measurement, not a
// machine-speed gate, so it only runs when explicitly requested:
//
//	MC_BENCH_JSON=1 go test -run 'TestEmitBenchJSONPR10$' -count=1 -v .
func TestEmitBenchJSONPR10(t *testing.T) {
	if os.Getenv("MC_BENCH_JSON") == "" {
		t.Skip("set MC_BENCH_JSON=1 to measure and write BENCH_PR10.json")
	}

	const rounds = 9
	ns := make([]float64, 0, rounds)
	var allocs int64
	for i := 0; i < rounds; i++ {
		r := testing.Benchmark(benchReplay)
		ns = append(ns, float64(r.T.Nanoseconds())/float64(r.N))
		allocs = r.AllocsPerOp()
	}
	// Insertion sort; rounds is tiny.
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}

	rep := replayBenchReport{
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		MinNsPerAccess:    ns[0],
		MedianNsPerAccess: ns[len(ns)/2],
		Rounds:            rounds,
		AllocsPerOp:       allocs,
		PR9NsPerAccess:    68.8,
	}
	rep.SpeedupVsPR9 = rep.PR9NsPerAccess / rep.MinNsPerAccess

	t.Logf("replay: min %.1f ns/access, median %.1f over %d rounds, %d allocs/access (%.2fx vs PR9's %.1f)",
		rep.MinNsPerAccess, rep.MedianNsPerAccess, rep.Rounds, rep.AllocsPerOp, rep.SpeedupVsPR9, rep.PR9NsPerAccess)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR10.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"mobilecache/internal/sim"
)

// tinySizing runs every workload in a few seconds.
var tinySizing = sizing{
	suiteAccesses: 4_000, warmAccesses: 2_000,
	replayTraces: 2, replayAccesses: 20_000,
	jobAccesses: 3_000, jobsPerClient: 2, warmJobs: 1,
	setupReps: 1, minPasses: 1,
	probeAccesses: 2_000, probeJobs: 1,
}

// benchSpec is the part of BENCHMARK.json the schema test checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	daemonOnce sync.Once
	daemonBin  string
	daemonErr  error
)

// buildDaemon compiles cmd/mcserved once for the daemon workload and
// probes.
func buildDaemon(t *testing.T) string {
	t.Helper()
	daemonOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test-")
		if err != nil {
			daemonErr = err
			return
		}
		daemonBin = filepath.Join(dir, "mcserved")
		out, err := exec.Command("go", "build", "-o", daemonBin, "mobilecache/cmd/mcserved").CombinedOutput()
		if err != nil {
			daemonErr = fmt.Errorf("building mcserved: %v\n%s", err, out)
		}
	})
	if daemonErr != nil {
		t.Fatal(daemonErr)
	}
	return daemonBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonBin != "" {
		os.RemoveAll(filepath.Dir(daemonBin))
	}
	os.Exit(code)
}

func tinyEnv(t *testing.T, workload, mcserved string, traced bool) *env {
	return &env{
		workload: workload, kind: workloads[workload], seed: 7, seconds: 0.001, traced: traced,
		size: tinySizing, workdir: t.TempDir(), mcserved: mcserved,
		workers: 2, log: io.Discard,
	}
}

// TestSchema runs every workload at tiny scale, untraced and traced,
// and requires exactly the metrics BENCHMARK.json names, with their
// units, on a correct run.
func TestSchema(t *testing.T) {
	spec := loadSpec(t)
	mcserved := buildDaemon(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !equalSorted(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, err := execute(tinyEnv(t, name, mcserved, traced))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for n, unit := range want[traced] {
				if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %q", name, traced, n, m, unit)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[traced][n]; !ok {
					t.Errorf("%s (traced %v): metric %s is not in BENCHMARK.json", name, traced, n)
				}
			}
		}
	}
}

// TestTamperedReportFails corrupts every in-process simulation report
// before the strict audit sees it. No workload may report a correct
// run: the batch workloads simulate in process, and daemon-jobs checks
// the daemon's CSVs against an in-process engine run.
func TestTamperedReportFails(t *testing.T) {
	mcserved := buildDaemon(t)
	restore := sim.SetAuditTamper(func(r *sim.RunReport) { r.L2.Hits[0]++ })
	defer restore()
	for _, name := range workloadNames() {
		res, err := execute(tinyEnv(t, name, mcserved, false))
		if err == nil && res.Correct {
			t.Errorf("%s: tampered reports passed as correct", name)
		}
	}
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

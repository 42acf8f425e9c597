// Command perfbench is the repository benchmark. It times three
// workloads end to end — the paper's whole experiment suite, packed-tier
// replay of long traces on every standard machine, and closed-loop jobs
// against a real mcserved daemon — checks every output, and with
// --trace 1 breaks the time down per layer.
//
// Run it through run.sh, which builds it and the daemon first:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
//
// Human-readable lines (the host fingerprint, every metric with its
// unit, the simulated T2 figures beside the paper's) go to standard
// output first; the last line is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// prints correct=false and exits 1. LAYERS.md maps every per-layer
// metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"mobilecache/internal/engine"
)

// benchWorkload is one of the benchmark's workloads and how its host
// times are corrected (LAYERS.md, "Host-time correction").
type benchWorkload struct {
	run func(*env) error
	// calibrated workloads scale host times to the reference host by
	// the calibration loop. daemon-jobs is not calibrated: its time is
	// largely kernel work, I/O and waiting, which the loop does not
	// track, and in ten runs of the same code scaling doubled the spread
	// of its times (wall_s 3.9% to 7.1% between quartiles).
	calibrated bool
	// coupled workloads progress only while two threads run at once: a
	// client and the daemon hand every job back and forth, so steal on
	// either vCPU stalls both, and the share of time they kept is the
	// one-vCPU share squared.
	coupled bool
}

var workloads = map[string]benchWorkload{
	"paper-suite":   {runPaperSuite, true, false},
	"replay-packed": {runReplayPacked, true, false},
	"daemon-jobs":   {runDaemonJobs, false, true},
}

// timeUnits are the units of host-time metrics, which the result line
// of a calibrated workload carries scaled to the reference host (see
// referenceCalibNS).
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// scaled marks a host time already taken to the reference host
	// where it was measured (see repeat); other host times are scaled
	// when the run ends.
	scaled bool
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one benchmark run: its arguments, its sizing and what it has
// measured so far.
type env struct {
	workload string
	kind     benchWorkload
	seed     uint64
	seconds  float64
	traced   bool
	size     sizing
	// workdir holds daemon stores and journals; mcserved is the daemon
	// binary daemon workloads and probes boot.
	workdir  string
	mcserved string
	workers  int
	log      io.Writer

	// tr records spans; it stays nil until a traced run starts its
	// traced half, so untraced measurement pays nothing for it.
	tr        *tracer
	calibs    []float64 // calibration loop times, ns
	kept      []float64 // each timed pass's unstolen share of CPU time
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func (e *env) set(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

// setScaled records a host time already taken to the reference host.
func (e *env) setScaled(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit, scaled: true}
}

// fail records a correctness problem; any problem fails the run.
func (e *env) fail(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "", "workload: paper-suite, replay-packed or daemon-jobs")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "working directory for daemon stores, journals and spans")
	mcserved := fs.String("mcserved", filepath.Join(".bench_build", "bin", "mcserved"), "mcserved binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(errOut, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		workload: *name, kind: workloads[*name], seed: *seed, seconds: *seconds, traced: *traced == 1,
		size: fullSizing, workdir: *workdir, mcserved: *mcserved,
		workers: runtime.NumCPU(), log: out,
	}
	res, err := execute(e)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs e's workload under the strict invariant audit and
// returns its result line. An error means the benchmark itself could
// not run (no result is printed); wrong outputs come back as
// correct=false.
func execute(e *env) (result, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return result{}, err
	}
	restore, err := engine.ApplyAudit("strict")
	if err != nil {
		return result{}, err
	}
	defer restore()
	e.metrics = map[string]metric{}
	host := fingerprint(e)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(e.log, "host: %s\n", hb)
	fmt.Fprintf(e.log, "workload %s, seed %d, %g s, trace %v\n", e.workload, e.seed, e.seconds, e.traced)

	if err := e.kind.run(e); err != nil {
		return result{}, err
	}
	if e.tr != nil {
		if err := e.tr.write(filepath.Join(e.workdir, fmt.Sprintf("spans-%s-%d.json", e.workload, e.seed))); err != nil {
			return result{}, err
		}
	}
	if e.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	calib := median(e.calibs)
	scale := e.calibScale()
	fmt.Fprintf(e.log, "hypervisor steal: median %.1f%% of the CPU time timed passes wanted; it is taken out of every wall time\n",
		(1-median(e.kept))*100)
	if e.kind.calibrated {
		fmt.Fprintf(e.log, "calibration loop: median %.0f ns of CPU time over %d timings; timed passes are scaled to the reference host by the loop time after each, other host times by %.4f (unscaled value in brackets)\n",
			calib, len(e.calibs), scale)
	} else {
		fmt.Fprintf(e.log, "calibration loop: median %.0f ns of CPU time over %d timings; this workload's host times are not scaled by it\n",
			calib, len(e.calibs))
	}
	names := make([]string, 0, len(e.metrics))
	for n := range e.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := e.metrics[n]
		if timeUnits[m.Unit] && !m.scaled {
			fmt.Fprintf(e.log, "%-44s %14.6g %s [%.6g]\n", n, m.Value*scale, m.Unit, m.Value)
			m.Value *= scale
			e.metrics[n] = m
			continue
		}
		fmt.Fprintf(e.log, "%-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range e.problems {
		fmt.Fprintf(e.log, "CHECK FAILED: %s\n", p)
	}
	return result{
		Correct:   len(e.problems) == 0 && e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   e.metrics,
	}, nil
}

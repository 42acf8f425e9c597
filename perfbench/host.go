package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the machine fingerprint printed with every result, so
// figures from different machines can be told apart. CalibNS is the
// calibration loop's median CPU time at the start of the run.
type host struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	CalibNS    float64 `json:"calibration_ns"`
}

// The calibration loop is a fixed chain of dependent multiply-xorshift
// steps followed by a run of updates to pseudo-random words of a 32 MiB
// table. The chain slows with the core's own speed, the table with the
// host's shared caches and memory bandwidth, which is where the
// simulator's time goes under neighbours' load: there a compute-only
// loop slowed 1.1x while replay slowed 1.4-1.7x, and a table-only loop
// 1.4x.
const (
	calibrationSteps  = 10_000_000
	calibrationRounds = 2_000_000
	calibrationWords  = 1 << 22
)

// referenceCalibNS is, rounded, the calibration loop's CPU time on the
// reference host (a 2-vCPU Intel Xeon VM, go1.24.0) in its quieter
// periods. Host times are reported scaled by referenceCalibNS over the
// run's median loop time: on a shared machine the host's speed drifts
// by tens of percent over minutes, and the loop, timed between passes,
// slows with it, so the scaled times compare across runs and machines.
const referenceCalibNS = 60e6

// calibTable is the loop's table, allocated on first use and kept for
// the run; retainedMB leaves it out.
var calibTable []uint64

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package
// does not name.
const rusageThread = 1

// threadCPU is the CPU time the calling OS thread has used, or false
// where the kernel cannot tell.
func threadCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}

// calibrateOnce times one run of the calibration loop, in ns of the
// thread's CPU time, so that time the hypervisor steals from the VM
// does not count (wall time where thread CPU time is unavailable).
func calibrateOnce() float64 {
	if calibTable == nil {
		calibTable = make([]uint64, calibrationWords)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, cpuOK := threadCPU()
	t0 := time.Now()
	x := uint64(t0.UnixNano())
	for i := 0; i < calibrationSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	for i := 0; i < calibrationRounds; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calibTable[(x>>32)&(calibrationWords-1)] += x
	}
	wall := time.Since(t0)
	if c1, ok := threadCPU(); cpuOK && ok {
		return float64(c1 - c0)
	}
	return float64(wall)
}

// window is a stretch of host time whose stolen share is known: the
// share of the time the VM's CPUs wanted to run that the hypervisor
// gave to other guests, from the steal column of /proc/stat. Stolen
// time stretches a CPU-bound stretch by 1/(1-share) without the program
// doing any more work, so the benchmark reports wall times with it
// taken out.
type window struct {
	t0          time.Time
	busy, steal uint64
	ok          bool
}

// cpuTicks reads the busy and stolen ticks of all CPUs from the first
// line of /proc/stat: user, nice, system, idle, iowait, irq, softirq,
// steal, ...
func cpuTicks() (busy, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}

func startWindow() window {
	w := window{t0: time.Now()}
	w.busy, w.steal, w.ok = cpuTicks()
	return w
}

// end returns the window's wall time in seconds and the share of it
// the program kept: 1 minus the stolen share (1 where /proc/stat is
// unavailable or nothing ran).
func (w window) end() (wall, kept float64) {
	wall = time.Since(w.t0).Seconds()
	busy, steal, ok := cpuTicks()
	if !w.ok || !ok {
		return wall, 1
	}
	db, ds := busy-w.busy, steal-w.steal
	if db+ds == 0 {
		return wall, 1
	}
	return wall, 1 - float64(ds)/float64(db+ds)
}

// fingerprint describes the host, timing the calibration loop five
// times into e's calibration samples.
func fingerprint(e *env) host {
	for r := 0; r < 5; r++ {
		e.calibs = append(e.calibs, calibrateOnce())
	}
	return host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		CalibNS:    median(e.calibs),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports
// the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mobilecache/internal/engine"
	"mobilecache/internal/experiments"
	"mobilecache/internal/jobs"
	"mobilecache/internal/shardlru"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// jobMachines are the three machines every daemon job sweeps: the
// baseline and the paper's static and dynamic designs, so the jobs'
// results carry the T2 comparison.
var jobMachines = []string{"baseline-sram", "sp-mr", "dp-sr"}

// daemon is one running mcserved process on a fresh store.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error
	base   string
	store  string
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// bootDaemon starts mcserved with -workers nproc -audit strict on a
// fresh store and returns once /readyz answers 200.
func bootDaemon(e *env) (*daemon, error) {
	store, err := os.MkdirTemp(e.workdir, "mcserved-")
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		os.RemoveAll(store)
		return nil, err
	}
	logf, err := os.Create(store + ".log")
	if err != nil {
		os.RemoveAll(store)
		return nil, err
	}
	d := &daemon{base: "http://" + addr, store: store, log: logf, exited: make(chan error, 1)}
	t0 := time.Now()
	d.cmd = exec.Command(e.mcserved, "-addr", addr, "-data", filepath.Join(store, "data"),
		"-workers", strconv.Itoa(e.workers), "-audit", "strict")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(store)
		os.Remove(store + ".log")
		return nil, fmt.Errorf("starting %s: %w", e.mcserved, err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := t0.Add(30 * time.Second)
	for {
		if resp, err := hc.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			d.stop()
			return nil, fmt.Errorf("mcserved exited before becoming ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mcserved did not become ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit and removes its store.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	os.RemoveAll(d.store)
	os.Remove(d.log.Name())
}

// scrape reads one value per metric name from /metrics.
func (d *daemon) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out, sc.Err()
}

// jobRun is one closed-loop job as a client saw it.
type jobRun struct {
	spec   jobs.Spec
	batch  int
	client int
	index  int
	total  time.Duration // POST sent -> CSV fully read
	first  time.Duration // POST sent -> first cell event
	events []jobs.Event
	csv    []byte
}

// jobSpec is the k-th job of client c in batch b: the three machines
// over one of QuickOptions' apps and two seeds no other job uses, so
// the daemon's run memo never hits.
func jobSpec(e *env, batch, client, k int) jobs.Spec {
	apps := experiments.QuickOptions().Apps
	id := shardlru.Mix64(e.seed ^ uint64(batch)<<40 ^ uint64(client)<<32 ^ uint64(k))
	return jobs.Spec{
		Machines: jobMachines,
		Apps:     []string{apps[(client+k)%len(apps)].Name},
		Seeds:    []uint64{shardlru.Mix64(id) >> 16, shardlru.Mix64(id+1) >> 16},
		Accesses: e.size.jobAccesses,
	}
}

// runJob submits spec as client c, streams its events and downloads its
// CSV, recording a span per HTTP route when tracing is on.
func runJob(e *env, d *daemon, hc *http.Client, spec jobs.Spec, client int) (jobRun, error) {
	run := jobRun{spec: spec, client: client}
	body, err := json.Marshal(spec)
	if err != nil {
		return run, err
	}
	root := e.tr.begin("mcserved.job", -1)
	defer e.tr.end(root)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, d.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return run, err
	}
	req.Header.Set("X-Client-ID", fmt.Sprintf("perfbench-%d", client))
	sp := e.tr.begin("mcserved.POST /jobs", root)
	resp, err := hc.Do(req)
	if err != nil {
		e.tr.end(sp)
		return run, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	e.tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return run, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}

	sp = e.tr.begin("mcserved.GET /jobs/{id}/results", root)
	resp, err = hc.Get(d.base + "/jobs/" + sub.ID + "/results")
	if err != nil {
		e.tr.end(sp)
		return run, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			e.tr.end(sp)
			return run, fmt.Errorf("results stream: %w", err)
		}
		if ev.Type == "cell" && run.first == 0 {
			run.first = time.Since(t0)
		}
		run.events = append(run.events, ev)
	}
	resp.Body.Close()
	e.tr.end(sp)
	if err := sc.Err(); err != nil {
		return run, err
	}

	sp = e.tr.begin("mcserved.GET /jobs/{id}/csv", root)
	resp, err = hc.Get(d.base + "/jobs/" + sub.ID + "/csv")
	if err == nil {
		run.csv, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("csv: status %d", resp.StatusCode)
		}
	}
	e.tr.end(sp)
	run.total = time.Since(t0)
	return run, err
}

// checkJob verifies a job's stream: one cell event per cell and a done
// event reporting every cell completed.
func checkJob(e *env, r jobRun) {
	cells := 0
	var done *jobs.Event
	for i, ev := range r.events {
		switch ev.Type {
		case "cell":
			cells++
		case "done":
			done = &r.events[i]
		}
	}
	want := r.spec.Cells()
	if cells != want || done == nil || done.State != jobs.StateDone || done.Completed != want || done.Failed != 0 {
		e.fail("job %d of client %d: %d cell events, done=%+v; want %d completed cells", r.index, r.client, cells, done, want)
	}
}

// runBatch runs two closed-loop clients concurrently, each submitting
// perClient jobs in turn, and returns every job in client-then-order.
func runBatch(e *env, d *daemon, hc *http.Client, batch, perClient int) ([]jobRun, error) {
	const clients = 2
	out := make([][]jobRun, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				r, err := runJob(e, d, hc, jobSpec(e, batch, c, k), c)
				r.index = k
				if err != nil {
					errs[c] = fmt.Errorf("client %d job %d: %w", c, k, err)
					return
				}
				out[c] = append(out[c], r)
			}
		}()
	}
	wg.Wait()
	var all []jobRun
	for c := range out {
		all = append(all, out[c]...)
	}
	for _, err := range errs {
		if err != nil {
			return all, err
		}
	}
	return all, nil
}

func newHTTPClient(e *env) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers},
	}
}

// inProcessCSV runs spec on a fresh in-process engine and returns the
// CSV mcsweep would write for it.
func inProcessCSV(e *env, spec jobs.Spec) ([]byte, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = engine.New(engine.Config{Workers: e.workers}).Execute(context.Background(), plan, engine.ExecOptions{}, engine.NewCSV(&buf))
	return buf.Bytes(), err
}

// daemonRSSMB is the daemon's resident set in MiB, from
// /proc/<pid>/status.
func daemonRSSMB(d *daemon) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", d.cmd.Process.Pid)
}

// runDaemonJobs boots mcserved and drives it with two closed-loop
// clients posting small fresh-seed jobs; a batch is perClient jobs per
// client, and batches repeat for the measured time.
func runDaemonJobs(e *env) error {
	// Set-up boots a daemon on a fresh store and warms it with a short
	// batch of its own fresh-seed jobs; the last one set up serves the
	// timed batches.
	hc := newHTTPClient(e)
	defer hc.CloseIdleConnections()
	var d *daemon
	var setups []float64
	for r := 0; r < e.size.setupReps; r++ {
		w := startWindow()
		nd, err := bootDaemon(e)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return err
		}
		if d != nil {
			d.stop()
		}
		d = nd
		runs, err := runBatch(e, d, hc, -1-r, e.size.warmJobs)
		if err != nil {
			d.stop()
			return fmt.Errorf("warm-up: %w", err)
		}
		for _, run := range runs {
			checkJob(e, run)
		}
		setups = append(setups, e.setupSeconds(w))
	}
	defer d.stop()

	var all []jobRun
	batch := 0
	pass := func() error {
		runs, err := runBatch(e, d, hc, batch, e.size.jobsPerClient)
		e.attempted += 2 * e.size.jobsPerClient
		e.failed += 2*e.size.jobsPerClient - len(runs)
		for _, r := range runs {
			checkJob(e, r)
			r.batch = batch
			all = append(all, r)
		}
		batch++
		return err
	}
	walls, factors, err := e.repeat(1, pass)
	if err != nil {
		return err
	}
	// The first job and the last one must match an in-process engine
	// run of the same spec byte for byte.
	for _, r := range []jobRun{all[0], all[len(all)-1]} {
		want, err := inProcessCSV(e, r.spec)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, r.csv) {
			e.fail("job %d of client %d: daemon CSV differs from the in-process engine's", r.index, r.client)
		}
	}

	if !e.traced {
		var totals, firsts []float64
		byMachine := map[string][]cellOut{}
		for _, r := range all {
			totals = append(totals, ms(r.total)*factors[r.batch])
			firsts = append(firsts, ms(r.first)*factors[r.batch])
		}
		// T2 over batch 0 only, which every run completes, so the figures
		// repeat exactly for a seed.
		for _, r := range all[:2*e.size.jobsPerClient] {
			for _, seed := range r.spec.Seeds {
				for _, ev := range r.events {
					if ev.Type == "cell" && ev.Seed == seed {
						byMachine[ev.Machine] = append(byMachine[ev.Machine], cellOut{ev.L2EnergyJ, ev.IPC})
					}
				}
			}
		}
		rss, err := daemonRSSMB(d)
		if err != nil {
			return err
		}
		e.setScaled("setup_s", median(setups), "s")
		e.setScaled("wall_s", median(walls), "s")
		e.set("retained_mb", rss, "MB")
		e.setScaled("job_p50_ms", median(totals), "ms")
		e.setScaled("job_p90_ms", percentile(totals, 90), "ms")
		e.setScaled("first_result_p50_ms", median(firsts), "ms")
		setT2Cells(e, byMachine)
		fmt.Fprintf(e.log, "jobs: %d over %d batches of %d\n", len(all), batch, 2*e.size.jobsPerClient)
		return nil
	}

	untracedWall := median(walls)
	e.tr = newTracer()
	before, err := d.scrape(hc)
	if err != nil {
		return err
	}
	tracedWalls, _, err := e.repeat(1, pass)
	if err != nil {
		return err
	}
	after, err := d.scrape(hc)
	if err != nil {
		return err
	}
	e.set("tracing.overhead_pct", (median(tracedWalls)/untracedWall-1)*100, "%")
	setDaemonMetrics(e, before, after)
	// The daemon's own arena and memo, over the traced window.
	delta := func(name string) uint64 { return uint64(after[name] - before[name]) }
	setArenaMetrics(e, tracestore.Stats{
		Generated: delta("mcserved_trace_generated_total"),
		Hits:      delta("mcserved_trace_hits_total"),
		Misses:    delta("mcserved_trace_misses_total"),
		Demotions: delta("mcserved_trace_demotions_total"),
		Evictions: delta("mcserved_trace_evictions_total"),
	}, engine.MemoStats{
		Hits:   delta("mcserved_memo_hits_total"),
		Misses: delta("mcserved_memo_misses_total"),
	})
	spec := jobSpec(e, 0, 0, 0)
	prof, err := workload.ProfileByName(spec.Apps[0])
	if err != nil {
		return err
	}
	traces := []traceRef{{prof, spec.Seeds[0]}, {prof, spec.Seeds[1]}}
	if err := layerPass(e, traces, spec.Accesses, jobMachines, nil); err != nil {
		return err
	}
	experimentsProbe(e)
	return nil
}

// setDaemonMetrics records the client-side route spans and the cells
// the daemon completed between two /metrics scrapes.
func setDaemonMetrics(e *env, before, after map[string]float64) {
	submit := e.tr.durations("mcserved.POST /jobs", time.Millisecond)
	e.set("mcserved.submit_ms_p50", median(submit), "ms")
	e.set("mcserved.submit_ms_p90", percentile(submit, 90), "ms")
	e.set("mcserved.stream_ms_p50", median(e.tr.durations("mcserved.GET /jobs/{id}/results", time.Millisecond)), "ms")
	e.set("mcserved.csv_ms_p50", median(e.tr.durations("mcserved.GET /jobs/{id}/csv", time.Millisecond)), "ms")
	e.set("jobs.cells_done", after["mcserved_cells_done_total"]-before["mcserved_cells_done_total"], "count")
}

// daemonProbe measures the daemon layers for workloads that do not
// drive the daemon themselves: one batch of probe jobs against a freshly
// booted mcserved.
func daemonProbe(e *env) error {
	d, err := bootDaemon(e)
	if err != nil {
		return err
	}
	defer d.stop()
	hc := newHTTPClient(e)
	defer hc.CloseIdleConnections()
	before, err := d.scrape(hc)
	if err != nil {
		return err
	}
	runs, err := runBatch(e, d, hc, 0, e.size.probeJobs)
	if err != nil {
		return err
	}
	for _, r := range runs {
		checkJob(e, r)
	}
	after, err := d.scrape(hc)
	if err != nil {
		return err
	}
	setDaemonMetrics(e, before, after)
	return nil
}

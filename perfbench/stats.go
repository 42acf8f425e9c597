package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeat calls pass until at least minPasses have run and the measured
// time has elapsed — all of --seconds, or half of it in a traced run,
// which times an untraced and then a traced half. Before each pass it
// collects the garbage earlier passes left, so every pass starts from
// the same heap; after each it times the calibration loop. It returns
// each pass's wall time taken to the reference host, and the factor
// that took it there, by which the caller scales times measured inside
// the pass: the share of its time the pass kept from the hypervisor,
// times referenceCalibNS over the loop time right after the pass (1 for
// a workload that is not calibrated). A pass error stops the loop.
func (e *env) repeat(minPasses int, pass func() error) (walls, factors []float64, err error) {
	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC()
		w := startWindow()
		if err := pass(); err != nil {
			return walls, factors, err
		}
		wall, kept := w.end()
		calib := calibrateOnce()
		e.calibs = append(e.calibs, calib)
		e.kept = append(e.kept, kept)
		f := e.keptShare(kept)
		if e.kind.calibrated {
			f *= referenceCalibNS / calib
		}
		walls = append(walls, wall*f)
		factors = append(factors, f)
	}
	return walls, factors, nil
}

// setupSeconds is the wall time of set-up window w taken to the
// reference host: without its stolen share, and scaled by the
// calibration loop times so far.
func (e *env) setupSeconds(w window) float64 {
	wall, kept := w.end()
	return wall * e.keptShare(kept) * e.calibScale()
}

// keptShare is the share of a window's wall time the workload kept
// from the hypervisor, given the share kept of the CPU time the VM
// wanted (see benchWorkload.coupled).
func (e *env) keptShare(kept float64) float64 {
	if e.kind.coupled {
		return kept * kept
	}
	return kept
}

// calibScale is the factor that takes the run's host times to the
// reference host, from its calibration loop times so far: 1 for a
// workload that is not calibrated.
func (e *env) calibScale() float64 {
	if !e.kind.calibrated {
		return 1
	}
	return referenceCalibNS / median(e.calibs)
}

// forEach calls fn(i) for every i in [0, n) on at most workers
// goroutines at a time and returns when all calls have.
func forEach(n, workers int, fn func(i int)) {
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// retainedMB is the live heap after a forced collection, in MiB,
// without the calibration loop's table.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-int64(len(calibTable))*8) / (1 << 20)
}

// span is one timed call at a layer boundary. Parent is the index of
// the span that caused it, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration((s.End - s.Start) * 1e3) }

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / 1e3 }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	return t.spans[id].dur()
}

// durations lists the durations of every closed span named name, in
// the unit given.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cellGate is the benchmark's engine.ExecOptions.Gate: it admits every
// cell at once (the engine's own workers bound concurrency) and times
// each cell from acquire to release, as an "engine.cell" span when
// tracing is on. The runner acquires and releases on the worker
// goroutine that runs the cell, and Release carries no argument, so
// the open cell is looked up by goroutine id.
type cellGate struct {
	tr     *tracer
	parent int

	mu    sync.Mutex
	open  map[uint64]openCell
	cells []float64 // milliseconds
}

type openCell struct {
	t0   time.Time
	span int
}

func newCellGate(tr *tracer, parent int) *cellGate {
	return &cellGate{tr: tr, parent: parent, open: map[uint64]openCell{}}
}

func (g *cellGate) Acquire(ctx context.Context) error {
	id := goid()
	sp := g.tr.begin("engine.cell", g.parent)
	g.mu.Lock()
	g.open[id] = openCell{time.Now(), sp}
	g.mu.Unlock()
	return ctx.Err()
}

func (g *cellGate) Release() {
	now := time.Now()
	id := goid()
	g.mu.Lock()
	c, ok := g.open[id]
	if ok {
		g.cells = append(g.cells, ms(now.Sub(c.t0)))
		delete(g.open, id)
	}
	g.mu.Unlock()
	if ok {
		g.tr.end(c.span)
	}
}

func (g *cellGate) durations() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]float64(nil), g.cells...)
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return id
}

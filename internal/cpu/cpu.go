// Package cpu is the trace-driven in-order timing model. It replays an
// access trace against a memory hierarchy, charging one base cycle per
// instruction plus the stall cycles the hierarchy reports for each
// memory access, and reports IPC — the metric behind the paper's
// "performance loss" comparisons.
package cpu

import (
	"fmt"

	"mobilecache/internal/mem"
	"mobilecache/internal/trace"
)

// Config parameterizes the core.
type Config struct {
	// BaseCPI is the cycles charged per instruction absent memory
	// stalls. Mobile in-order cores run near 1.
	BaseCPI float64
	// AdvanceEvery sets how often (in accesses) the hierarchy's
	// leakage clocks are synchronized; smaller is more precise but
	// slower. Zero selects the default.
	AdvanceEvery uint64
	// IdleEvery and IdleCycles model the idle stretches of interactive
	// mobile use (waiting for input, screen dimmed): every IdleEvery
	// accesses the core idles for IdleCycles cycles — no instructions
	// retire, but the caches keep leaking (and STT-RAM retention keeps
	// running). Zero IdleEvery disables idling. Idle time is excluded
	// from IPC, which measures active execution only.
	IdleEvery  uint64
	IdleCycles uint64
}

// DefaultConfig returns the settings used by all experiments.
func DefaultConfig() Config {
	return Config{BaseCPI: 1.0, AdvanceEvery: 4096}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BaseCPI <= 0 {
		return fmt.Errorf("cpu: base CPI %g must be positive", c.BaseCPI)
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	// Instructions and Cycles are the totals the run covered; Cycles
	// counts active execution only.
	Instructions uint64
	Cycles       uint64
	// Accesses is the number of trace records replayed.
	Accesses uint64
	// StallCycles is the memory-stall portion of Cycles.
	StallCycles uint64
	// IdleCycles is the time spent in modeled idle stretches; it is
	// not part of Cycles (IPC measures active execution) but it does
	// elapse on the hierarchy's leakage clocks.
	IdleCycles uint64
	// CyclesByDomain attributes active cycles to the domain of the
	// instruction that spent them.
	CyclesByDomain [trace.NumDomains]uint64
}

// IPC is instructions per active cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// WallCycles is the total elapsed time including idle stretches.
func (r Result) WallCycles() uint64 { return r.Cycles + r.IdleCycles }

// StallFraction is the share of cycles spent stalled on memory.
func (r Result) StallFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.Cycles)
}

// stepBatchLen is the frame size: how many records Run stages per
// front-end Frame call. Big enough to amortize frame setup (the kernel
// hoists L1 state once per frame), small enough that the frame buffer
// stays L1-resident on the host.
const stepBatchLen = 256

// frameEventsCap bounds one frame's L2 events: a miss issues at most a
// demand read, a writeback, a prefetch and the prefetch's writeback,
// and the frame may end in an idle and a leakage-sync event.
const frameEventsCap = 4*stepBatchLen + 2

// CPU binds a config to a hierarchy. Replay runs in two stages (see
// internal/mem's frame.go): the front end turns trace frames into L2
// events on the CPU's front-end clock — busy cycles since the CPU was
// built — and the back end replays them on the machine's real clock,
// which runs ahead of the front-end clock by the stall and idle
// cycles accumulated so far (lag).
type CPU struct {
	cfg   Config
	hier  *mem.Hierarchy
	clock uint64
	lag   mem.Lag
	pre   []mem.FramePre
	evs   []mem.Event
	geom  trace.FrameGeom
}

// New builds a CPU over the hierarchy.
func New(cfg Config, hier *mem.Hierarchy) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil hierarchy")
	}
	if cfg.AdvanceEvery == 0 {
		cfg.AdvanceEvery = DefaultConfig().AdvanceEvery
	}
	return &CPU{
		cfg: cfg, hier: hier,
		lag:  mem.Lag{IdleCycles: cfg.IdleCycles},
		pre:  make([]mem.FramePre, stepBatchLen),
		evs:  make([]mem.Event, 0, frameEventsCap),
		geom: hier.FrameGeom(),
	}, nil
}

// Now reports the current simulated cycle.
func (c *CPU) Now() uint64 { return c.clock + c.lag.Cycles }

// Run replays up to maxAccesses records from src (0 = until the source
// ends) and returns the timing result. Run may be called repeatedly;
// time continues from where the previous call stopped.
//
// Replay runs in frames: each iteration decodes up to one frame of
// records (stepBatchLen, clipped so no frame spans an idle or
// leakage-sync boundary — see frameCap) with one FrameSource call,
// runs the front end over it, and hands the frame's L2 events to the
// back end before the next frame.
func (c *CPU) Run(src trace.Source, maxAccesses uint64) Result {
	res, _ := c.run(src, maxAccesses, false)
	return res
}

// Record is Run that also keeps the run's L2 events: the returned
// Segment lets any machine built with this CPU's config and L1s finish
// the same run by replaying only the back end (Replay).
func (c *CPU) Record(src trace.Source, maxAccesses uint64) (Result, Segment) {
	return c.run(src, maxAccesses, true)
}

// Recorded events go into chunks that start at a few frames' worth and
// double up to maxChunkEvents (1 MiB), so a recording never copies
// what it has already written and wastes at most its last chunk.
const maxChunkEvents = 1 << 15

func (c *CPU) run(src trace.Source, maxAccesses uint64, record bool) (Result, Segment) {
	c.resetLag()
	before := c.hier.Counts()
	r := c.begin(src, maxAccesses)
	// A plain run reuses one frame's worth of buffer; a recording keeps
	// every frame's events.
	evs := c.evs
	var chunks [][]mem.Event
	if record {
		evs = make([]mem.Event, 0, 2*frameEventsCap)
	}
	for {
		if !record {
			evs = evs[:0]
		} else if cap(evs)-len(evs) < frameEventsCap {
			chunks = append(chunks, evs)
			evs = make([]mem.Event, 0, min(2*cap(evs), maxChunkEvents))
		}
		start := len(evs)
		var ok bool
		if evs, ok = c.frame(&r, evs); !ok {
			break
		}
		c.hier.Replay(evs[start:], &c.lag)
	}
	c.hier.Advance(c.Now())
	res := c.result(&r.res)
	if !record {
		return res, Segment{}
	}
	chunks = append(chunks, evs)
	return res, Segment{chunks: chunks, front: r.res, counts: c.hier.Counts().Sub(before), clock: c.clock}
}

// Segment is one run's recorded front end: its L2 event stream (in
// chunks that each hold whole frames), the machine-independent part
// of its Result (accesses, instructions, busy cycles), the front end's
// energy totals and the front-end clock at its end. It is immutable
// once recorded, so any number of machines may replay it concurrently.
type Segment struct {
	chunks [][]mem.Event
	front  Result
	counts mem.FrontCounts
	clock  uint64
}

// Replay runs the back end of a recorded segment on this CPU's
// hierarchy and returns the result Run would have. Segments must be
// replayed in the order they were recorded, on a CPU built like the
// recorder (Run's time continuity holds across them); the recorded L1
// energy and prefetch totals are charged to this hierarchy's front end,
// whose caches themselves stay cold.
func (c *CPU) Replay(s *Segment) Result {
	c.resetLag()
	for _, ch := range s.chunks {
		c.hier.Replay(ch, &c.lag)
	}
	c.hier.AddCounts(s.counts)
	c.clock = s.clock
	c.hier.Advance(c.Now())
	return c.result(&s.front)
}

// run is one Run's front-end state.
type run struct {
	src trace.FrameSource
	max uint64
	// res accumulates the front end's share of the Result: accesses,
	// instructions and busy cycles.
	res               Result
	idleLeft, advLeft uint64
	unitCPI           bool
}

func (c *CPU) begin(src trace.Source, maxAccesses uint64) run {
	return run{
		src: trace.Frames(src),
		max: maxAccesses,
		// Countdown counters replace per-access modulo checks against
		// IdleEvery/AdvanceEvery; a zero idleLeft start disables idling
		// (the counter never moves). AdvanceEvery is always positive
		// after New.
		idleLeft: c.cfg.IdleEvery,
		advLeft:  c.cfg.AdvanceEvery,
		// uint64(float64(instr) * 1.0) is exact for any Gap-sized count,
		// so a unit CPI — every standard config — can skip the float
		// round-trip without changing a single cycle.
		unitCPI: c.cfg.BaseCPI == 1.0,
	}
}

// resetLag starts a run's stall and idle tallies; the lag itself
// carries over, like the clock.
func (c *CPU) resetLag() {
	c.lag.Stall, c.lag.StallByDomain, c.lag.Idle = 0, [trace.NumDomains]uint64{}, 0
}

// result completes a run's front-end Result with the back end's stall
// and idle tallies.
func (c *CPU) result(front *Result) Result {
	res := *front
	res.StallCycles = c.lag.Stall
	res.IdleCycles = c.lag.Idle
	res.Cycles += c.lag.Stall
	for d, v := range c.lag.StallByDomain {
		res.CyclesByDomain[d] += v
	}
	return res
}

// frameCap sizes the next frame: at most stepBatchLen records, never
// crossing the idle or leakage-sync countdown (so those events fire
// exactly at frame boundaries, at the same access positions a
// per-record loop fires them), and never past the run's maxAccesses
// budget. Countdowns are always positive here — frame resets them the
// moment they reach zero.
func (r *run) frameCap() int {
	want := stepBatchLen
	if r.advLeft < uint64(want) {
		want = int(r.advLeft)
	}
	if r.idleLeft > 0 && r.idleLeft < uint64(want) {
		want = int(r.idleLeft)
	}
	if r.max != 0 {
		if left := r.max - r.res.Accesses; left < uint64(want) {
			want = int(left)
		}
	}
	return want
}

// frame runs the front end over the run's next frame: base cycles for
// each record's instructions (rescaled in place for non-unit CPI), the
// L1 kernel, and the idle and leakage-sync countdowns. It appends the
// frame's L2 events — then an EvIdle and an EvSync event if either
// countdown fires at the frame's end, idle first so the sync observes
// the post-idle clock — to evs. ok is false, and evs unchanged, once
// the run is over.
func (c *CPU) frame(r *run, evs []mem.Event) (_ []mem.Event, ok bool) {
	n := r.src.DecodeFrame(c.pre[:r.frameCap()], &c.geom)
	if n == 0 {
		return evs, false
	}
	pre := c.pre[:n]
	var instrs uint64
	if !r.unitCPI {
		// DecodeFrame fills Busy with the instruction count; rescale to
		// base cycles here, with an at-least-one-cycle clamp.
		for i := range pre {
			instr := pre[i].Busy
			instrs += instr
			busy := uint64(float64(instr) * c.cfg.BaseCPI)
			if busy == 0 {
				busy = 1
			}
			pre[i].Busy = busy
		}
	}
	evs, fs := c.hier.Frame(pre, c.clock, evs)
	if r.unitCPI {
		// Unit CPI: busy cycles are the instruction counts (each >= 1 by
		// construction, so the clamp never binds).
		instrs = fs.Busy
	}
	c.clock += fs.Busy
	r.res.Accesses += uint64(n)
	r.res.Instructions += instrs
	r.res.Cycles += fs.Busy
	for d, v := range fs.ByDomain {
		r.res.CyclesByDomain[d] += v
	}
	r.advLeft -= uint64(n)
	if r.idleLeft > 0 {
		r.idleLeft -= uint64(n)
		if r.idleLeft == 0 {
			r.idleLeft = c.cfg.IdleEvery
			evs = append(evs, mem.Event{Clock: c.clock, Kind: mem.EvIdle})
		}
	}
	if r.advLeft == 0 {
		r.advLeft = c.cfg.AdvanceEvery
		evs = append(evs, mem.Event{Clock: c.clock, Kind: mem.EvSync})
	}
	return evs, true
}

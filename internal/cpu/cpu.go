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
// AccessFrame call. Big enough to amortize frame setup (the kernel
// hoists hierarchy state once per frame), small enough that the frame
// buffer stays L1-resident on the host.
const stepBatchLen = 256

// CPU binds a config to a hierarchy.
type CPU struct {
	cfg  Config
	hier *mem.Hierarchy
	now  uint64
	buf  []trace.Access
	pre  []mem.FramePre
	geom trace.FrameGeom
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
		buf:  make([]trace.Access, stepBatchLen),
		pre:  make([]mem.FramePre, stepBatchLen),
		geom: hier.FrameGeom(),
	}, nil
}

// Now reports the current simulated cycle.
func (c *CPU) Now() uint64 { return c.now }

// Run replays up to maxAccesses records from src (0 = until the source
// ends) and returns the timing result. Run may be called repeatedly;
// time continues from where the previous call stopped.
//
// Replay runs in frames: each iteration stages up to one frame of
// records (stepBatchLen, clipped so no frame spans an idle or
// leakage-sync boundary — see frameCap) and hands it to the
// hierarchy's frame kernel in a single AccessFrame call. Cursors take
// devirtualized fast paths: a trace.SliceCursor (hot-tier decoded
// replay) stages zero-copy batches of its records through the frame
// precompute, and a trace.Cursor (packed replay) decodes straight
// into the frame buffer with the precompute fused into the varint
// loop (DecodeFrame) — no intermediate Access staging at all. All
// paths execute the identical frame step, so results never depend on
// the source's type.
func (c *CPU) Run(src trace.Source, maxAccesses uint64) Result {
	var res Result
	st := &stepState{
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
	switch cur := src.(type) {
	case *trace.SliceCursor:
		// Hot-tier replay: the records already exist in memory, so frames
		// stage as shared sub-slices of them — no decode, no copy.
		for {
			want := c.frameCap(st, &res, maxAccesses)
			b := cur.Batch(want)
			if len(b) == 0 {
				break
			}
			c.hier.PrecomputeFrame(b, c.pre)
			c.stepFrame(c.pre[:len(b)], &res, st)
			c.frameEnd(len(b), &res, st)
		}
	case *trace.Cursor:
		for {
			want := c.frameCap(st, &res, maxAccesses)
			n := cur.DecodeFrame(c.pre[:want], &c.geom)
			if n == 0 {
				break
			}
			c.stepFrame(c.pre[:n], &res, st)
			c.frameEnd(n, &res, st)
		}
	default:
		if bd, ok := src.(batchDecoder); ok {
			// Any other bulk-decoding source (e.g. the set-sampling filter
			// wrapping a cursor) fills the staging buffer the same way. The
			// loop is duplicated rather than shared through a method value:
			// binding bd.Decode to a func variable would allocate per Run.
			for {
				want := c.frameCap(st, &res, maxAccesses)
				n := bd.Decode(c.buf[:want])
				if n == 0 {
					break
				}
				c.hier.PrecomputeFrame(c.buf[:n], c.pre)
				c.stepFrame(c.pre[:n], &res, st)
				c.frameEnd(n, &res, st)
			}
		} else {
			for {
				want := c.frameCap(st, &res, maxAccesses)
				n := 0
				for n < want {
					a, ok := src.Next()
					if !ok {
						break
					}
					c.buf[n] = a
					n++
				}
				if n == 0 {
					break
				}
				c.hier.PrecomputeFrame(c.buf[:n], c.pre)
				c.stepFrame(c.pre[:n], &res, st)
				c.frameEnd(n, &res, st)
			}
		}
	}
	c.hier.Advance(c.now)
	return res
}

// batchDecoder is the bulk-fill contract sources can implement to
// skip the per-access Source.Next round-trip without being one of the
// two concrete cursor types.
type batchDecoder interface {
	Decode(dst []trace.Access) int
}

// stepState is the per-Run hot-loop state.
type stepState struct {
	idleLeft, advLeft uint64
	unitCPI           bool
}

// frameCap sizes the next frame: at most stepBatchLen records, never
// crossing the idle or leakage-sync countdown (so those events fire
// exactly at frame boundaries, at the same access positions the
// per-record loop fired them), and never past this call's maxAccesses
// budget. Countdowns are always positive here — frameEnd resets them
// the moment they reach zero.
func (c *CPU) frameCap(st *stepState, res *Result, maxAccesses uint64) int {
	want := stepBatchLen
	if st.advLeft < uint64(want) {
		want = int(st.advLeft)
	}
	if st.idleLeft > 0 && st.idleLeft < uint64(want) {
		want = int(st.idleLeft)
	}
	if maxAccesses != 0 {
		if left := maxAccesses - res.Accesses; left < uint64(want) {
			want = int(left)
		}
	}
	return want
}

// stepFrame charges one staged frame: base cycles for each record's
// instructions (rescaled in place for non-unit CPI) and the
// hierarchy's frame kernel for the accesses. The kernel returns the
// frame's clock totals; everything folds into res in one pass.
func (c *CPU) stepFrame(pre []mem.FramePre, res *Result, st *stepState) {
	var instrs uint64
	if !st.unitCPI {
		// DecodeFrame/PrecomputeFrame fill Busy with the instruction
		// count; rescale to base cycles here, preserving the old loop's
		// at-least-one-cycle clamp.
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
	fs := c.hier.AccessFrame(pre, c.now)
	if st.unitCPI {
		// Unit CPI: busy cycles are the instruction counts (each >= 1 by
		// construction, so the clamp never binds).
		instrs = fs.Busy
	}
	c.now += fs.Busy + fs.Stall
	res.Accesses += uint64(len(pre))
	res.Instructions += instrs
	res.Cycles += fs.Busy + fs.Stall
	res.StallCycles += fs.Stall
	for d, v := range fs.ByDomain {
		res.CyclesByDomain[d] += v
	}
}

// frameEnd retires a frame of n accesses against the idle and
// leakage-sync countdowns. frameCap guarantees n never overshoots
// either countdown, so each fires exactly at its per-access position;
// when both fire at the same access, idle runs first and the leakage
// sync observes the post-idle clock — the per-record loop's order.
func (c *CPU) frameEnd(n int, res *Result, st *stepState) {
	st.advLeft -= uint64(n)
	if st.idleLeft > 0 {
		st.idleLeft -= uint64(n)
		if st.idleLeft == 0 {
			st.idleLeft = c.cfg.IdleEvery
			c.now += c.cfg.IdleCycles
			res.IdleCycles += c.cfg.IdleCycles
			// Let retention controllers and leakage meters observe the
			// idle stretch immediately.
			c.hier.Advance(c.now)
		}
	}
	if st.advLeft == 0 {
		st.advLeft = c.cfg.AdvanceEvery
		c.hier.Advance(c.now)
	}
}

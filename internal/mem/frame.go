package mem

import (
	"math/bits"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/trace"
)

// This file implements replay in two stages.
//
// Stage 1, the front end (Front.Frame), runs a frame of up to 256
// precomputed records (trace.FramePre: the decoded access plus its
// set/tag decomposition and routing) against both L1s and the
// next-line prefetcher, with all invariant state — tag sidecars, way
// strides, meter pointers — hoisted into locals once per frame:
//
//	hit path   branch-minimized scan of the target L1's tags sidecar
//	           row (a fixed four-wide window, so no loop and no
//	           data-dependent break), verified against the line, then
//	           the specialized LRU touch. No Lookup call, no Result
//	           struct, no stats writes — access/hit tallies and meter
//	           counts accumulate in frame locals and flush once at the
//	           frame boundary.
//	miss path  the L1 half of a miss, in order: tag probe, fill,
//	           dirty victim, prefetch probe and fill. Every action that
//	           reaches past the L1 is appended to an Event stream
//	           instead of being performed.
//
// Stage 2, the back end (Hierarchy.Replay), walks that stream with the
// machine's own clock: demand reads, L1 writebacks and prefetch reads
// go to the L2 (and DRAM behind it) and the L2 tap in exactly the
// order the front end issued them, demand reads charge their stall,
// and idle and leakage-sync events advance the leakage clocks.
//
// Why the split is exact: the L2 is non-inclusive and nothing past the
// L1s reaches back into them (no back-invalidation, and the prefetcher
// probes only its own L1), so the L1s see the same lookups, fills and
// evictions on every machine. The only thing they take from the clock
// is order: L1 replacement is LRU by a sequence counter, and their
// time stamps feed only the L1 lifetime and write-interval histograms,
// which no report carries. Stage 1 therefore stamps the L1s with its
// own machine-independent clock — busy cycles since the run began —
// and records each L2-level action at that clock. Stage 2 recovers the
// machine's real cycle as that clock plus the stall and idle cycles
// the machine has accumulated so far (Lag). The stream depends only on
// the trace, the L1s, the prefetcher, the CPU model and the run's
// segmentation, so the cells of a sweep that share those can record it
// once and replay only stage 2 each (see cpu.Record and cpu.Replay).
//
// The specialized hit path requires both L1s in their permanent
// configuration (every way powered, LRU, at most cache.FrameScanWays
// ways — cache.FrameKernelOK); otherwise the frame runs the per-record
// Lookup path (frameSlow) with identical semantics.

// FramePre is the precomputed per-record lookup context; the concrete
// type lives in trace so the packed-trace decoder can emit it
// directly (Cursor.DecodeFrame) without a layering inversion.
type FramePre = trace.FramePre

// FrameStats is what a frame of accesses did to the front-end clock:
// busy cycles consumed by the records' instructions, in total and per
// domain. Stall cycles are the back end's (Lag).
type FrameStats struct {
	Busy     uint64
	ByDomain [trace.NumDomains]uint64
}

// EventKind classifies one record of the L2 event stream.
type EventKind uint8

const (
	// EvDemand is an L1 miss's demand read of Addr: the L2 access (and
	// DRAM on an L2 miss) stalls the CPU.
	EvDemand EventKind = iota
	// EvWriteback writes a dirty L1 victim (demand or prefetch fill)
	// into the L2, off the critical path, at its miss's time.
	EvWriteback
	// EvPrefetch is a next-line prefetch read of Addr, off the critical
	// path, at its miss's time.
	EvPrefetch
	// EvIdle is an idle stretch of the CPU model, followed by a
	// leakage sync.
	EvIdle
	// EvSync synchronizes every level's leakage clock.
	EvSync
)

// Event is one record of the L2 event stream stage 1 emits. Clock is
// the front-end clock of the access that caused it (busy cycles since
// the run began, through that access's instructions); Addr, PC and Dom
// are what the L2 and the tap see. Writebacks and prefetches share
// their demand read's time, so only EvDemand, EvIdle and EvSync read
// Clock.
type Event struct {
	Clock uint64
	Addr  uint64
	PC    uint64
	Kind  EventKind
	Dom   trace.Domain
}

// Front is the machine-independent half of the hierarchy: both L1s and
// the next-line prefetcher.
type Front struct {
	L1I *L1
	L1D *L1

	// NextLinePrefetch enables a simple L1 next-line prefetcher: on an
	// L1 data miss, the following block is fetched into the L1 as well
	// (through the L2, off the critical path). Mobile cores ship
	// stride/next-line prefetchers; the E17 experiment checks the
	// paper's conclusions hold with one enabled.
	NextLinePrefetch bool
	// SampleFilter, when set, restricts internally generated traffic to
	// the sampled block population: the prefetcher must not fetch a
	// block the replay filter would have dropped, or the sampled run
	// touches sets the scaling rules assume are idle. The demand stream
	// is filtered upstream; this guards only hierarchy-originated
	// addresses. A func field rather than a selector type keeps mem
	// free of a sample-package dependency.
	SampleFilter func(blockAddr uint64) bool
	// Prefetches counts issued prefetch fills.
	Prefetches uint64
}

// FrameGeom exports both L1 geometries for the trace-side precompute,
// indexed by trace.KindData / trace.KindIfetch.
func (f *Front) FrameGeom() trace.FrameGeom {
	return trace.FrameGeom{
		trace.KindData:   f.L1D.c.Geometry(),
		trace.KindIfetch: f.L1I.c.Geometry(),
	}
}

// FrontCounts are the front end's energy-relevant event totals: each
// L1's meter reads and writes (indexed by trace.KindData /
// trace.KindIfetch) and the issued prefetches. They do not depend on
// anything past the L1s.
type FrontCounts struct {
	Reads, Writes [2]uint64
	Prefetches    uint64
}

// Counts snapshots the front end's totals.
func (f *Front) Counts() FrontCounts {
	var c FrontCounts
	c.Reads[trace.KindData], c.Writes[trace.KindData] = f.L1D.meter.Counts()
	c.Reads[trace.KindIfetch], c.Writes[trace.KindIfetch] = f.L1I.meter.Counts()
	c.Prefetches = f.Prefetches
	return c
}

// Sub returns c - o, the totals accumulated between two snapshots.
func (c FrontCounts) Sub(o FrontCounts) FrontCounts {
	for k := range c.Reads {
		c.Reads[k] -= o.Reads[k]
		c.Writes[k] -= o.Writes[k]
	}
	c.Prefetches -= o.Prefetches
	return c
}

// AddCounts charges totals recorded by another front end to this one,
// so a machine replaying a recorded stream reports the L1 energy and
// prefetch count its own front end would have produced.
func (f *Front) AddCounts(c FrontCounts) {
	f.L1D.meter.Read(c.Reads[trace.KindData])
	f.L1D.meter.Write(c.Writes[trace.KindData])
	f.L1I.meter.Read(c.Reads[trace.KindIfetch])
	f.L1I.meter.Write(c.Writes[trace.KindIfetch])
	f.Prefetches += c.Prefetches
}

// frameL1 is one L1's hoisted state plus its frame-local tallies.
type frameL1 struct {
	l1    *L1
	c     *cache.Cache
	meter *energy.Meter
	tags  []uint64
	ways  int
	// wayMask keeps only the cache's real ways of the fixed-width scan
	// window's match bits (the window may overlap the next set's row,
	// or the sidecar's sentinel padding, on a <4-way cache).
	wayMask uint

	acc    [trace.NumDomains]uint64
	hits   [trace.NumDomains]uint64
	reads  uint64
	writes uint64
}

func (s *frameL1) init(l1 *L1) {
	s.l1 = l1
	s.c = l1.c
	s.meter = l1.meter
	s.tags = l1.c.FrameTags()
	s.ways = l1.c.Ways()
	s.wayMask = uint(1)<<s.ways - 1
}

func (s *frameL1) flush() {
	s.c.AddFrameCounts(&s.acc, &s.hits)
	s.meter.Read(s.reads)
	s.meter.Write(s.writes)
}

// Frame runs stage 1 over one frame of precomputed records starting
// at front-end clock clock, where pre[k].Busy is the busy cycles the
// CPU charges before record k's access. It appends the frame's L2
// events to evs and returns the extended slice with the frame's busy
// totals; the caller's front-end clock advances by Busy.
func (f *Front) Frame(pre []FramePre, clock uint64, evs []Event) ([]Event, FrameStats) {
	if !f.L1D.c.FrameKernelOK() || !f.L1I.c.FrameKernelOK() {
		return f.frameSlow(pre, clock, evs)
	}
	var fs FrameStats
	var l1s [2]frameL1
	l1s[trace.KindData].init(f.L1D)
	l1s[trace.KindIfetch].init(f.L1I)
	for k := range pre {
		p := &pre[k]
		clock += p.Busy
		s := &l1s[p.Kind]
		base := int(p.Set) * s.ways
		// Branchless tag match over a fixed four-wide window: fold each
		// way's compare into a bitmask instead of scanning with an early
		// break — the break's position is data-dependent and mispredicts
		// constantly, and a mispredict costs more than comparing four
		// tags (one host cache line). The constant width removes the
		// loop; wayMask drops window bits past the row's real ways
		// (possible only on the <4-way cache, where the window overlaps
		// the next row or the sidecar's sentinel padding).
		// (v|-v)>>63 is 1 exactly when v != 0.
		tg := (*[cache.FrameScanWays]uint64)(s.tags[base:])
		v0 := tg[0] ^ p.Tag
		v1 := tg[1] ^ p.Tag
		v2 := tg[2] ^ p.Tag
		v3 := tg[3] ^ p.Tag
		m := (uint((v0|-v0)>>63^1) |
			uint((v1|-v1)>>63^1)<<1 |
			uint((v2|-v2)>>63^1)<<2 |
			uint((v3|-v3)>>63^1)<<3) & s.wayMask
		// Domain values are 0 or 1 by construction; masking proves it to
		// the compiler so the tally indexing needs no bounds checks.
		dom := p.Dom & 1
		s.acc[dom]++
		fs.Busy += p.Busy
		fs.ByDomain[dom] += p.Busy
		if m != 0 {
			// A sidecar match is a hint (invalidTag can collide with a
			// genuine tag): verify against the line. Almost always the
			// first set bit verifies — both branches below predict well.
			way := -1
			for ; m != 0; m &= m - 1 {
				if w := bits.TrailingZeros(m); s.c.VerifyHit(base+w, p.Tag) {
					way = w
					break
				}
			}
			if way >= 0 {
				s.hits[dom]++
				if p.Write {
					s.c.TouchWriteHitLRU(base+way, dom, clock)
					s.writes++
				} else {
					s.c.TouchReadHitLRU(base+way, clock)
					s.reads++
				}
				continue
			}
		}
		evs = f.miss(s.l1, p, dom, clock, evs)
	}
	l1s[trace.KindData].flush()
	l1s[trace.KindIfetch].flush()
	return evs, fs
}

// frameSlow is Frame over the general per-record Lookup path, for L1s
// outside the kernel's specialization.
func (f *Front) frameSlow(pre []FramePre, clock uint64, evs []Event) ([]Event, FrameStats) {
	var fs FrameStats
	for k := range pre {
		p := &pre[k]
		clock += p.Busy
		l1 := f.L1D
		if p.Kind == trace.KindIfetch {
			l1 = f.L1I
		}
		if _, hit := l1.c.LookupAt(int(p.Set), p.Tag, p.Write, p.Dom, clock); !hit {
			evs = f.miss(l1, p, p.Dom, clock, evs)
		} else if p.Write {
			l1.meter.Write(1)
		} else {
			l1.meter.Read(1)
		}
		fs.Busy += p.Busy
		fs.ByDomain[p.Dom] += p.Busy
	}
	return evs, fs
}

// miss is the L1 half of an L1 miss at front-end clock clock: the tag
// probe, the demand read it issues, the fill and its dirty victim's
// writeback (write-allocate, no fetch), then the optional next-line
// prefetch — probe, read, fill and victim writeback. L1 work happens
// here; every L2-level action is appended to evs in issue order.
func (f *Front) miss(l1 *L1, p *FramePre, dom trace.Domain, clock uint64, evs []Event) []Event {
	l1.meter.Read(1) // tag probe
	blockAddr := l1.c.BlockAddr(p.Addr)
	evs = append(evs, Event{Clock: clock, Addr: blockAddr, PC: p.PC, Kind: EvDemand, Dom: dom})
	res := l1.c.Fill(p.Addr, p.Write, dom, clock)
	l1.meter.Write(1)
	if res.Evicted && res.EvictedDirty {
		l1.meter.Read(1) // victim readout
		evs = append(evs, Event{Clock: clock, Addr: res.EvictedAddr, PC: p.PC, Kind: EvWriteback, Dom: res.EvictedDomain})
	}
	if !f.NextLinePrefetch || p.Kind == trace.KindIfetch {
		return evs
	}
	// Next-line prefetch: bring block+1 into the L1 off the critical
	// path, unless it is already resident.
	next := blockAddr + uint64(l1.cfg.BlockBytes)
	if f.SampleFilter != nil && !f.SampleFilter(next) {
		return evs
	}
	if _, _, hit := l1.c.Probe(next); hit {
		return evs
	}
	f.Prefetches++
	l1.meter.Read(1)
	evs = append(evs, Event{Clock: clock, Addr: next, PC: p.PC, Kind: EvPrefetch, Dom: dom})
	pres := l1.c.Fill(next, false, dom, clock)
	l1.meter.Write(1)
	if pres.Evicted && pres.EvictedDirty {
		l1.meter.Read(1)
		evs = append(evs, Event{Clock: clock, Addr: pres.EvictedAddr, PC: p.PC, Kind: EvWriteback, Dom: pres.EvictedDomain})
	}
	return evs
}

// Lag is the back end's side of the clock: a machine's real cycle is
// the front-end clock plus Cycles, the stall and idle cycles it has
// accumulated. Stall, StallByDomain and Idle tally the current run;
// the CPU resets them per run.
type Lag struct {
	Cycles uint64
	// IdleCycles is the length of one idle stretch (EvIdle).
	IdleCycles uint64

	Stall         uint64
	StallByDomain [trace.NumDomains]uint64
	Idle          uint64
}

// Replay runs stage 2 over evs: the L2, DRAM and tap side of every
// miss in stage 1's issue order, with demand reads charging their
// stall (L2 bank wait + array read, plus DRAM on an L2 miss) to lag.
// Dirty L2 victims reach DRAM through the L2's own writeback path;
// writebacks and prefetches consume bandwidth and energy but never
// stall the CPU.
func (h *Hierarchy) Replay(evs []Event, lag *Lag) {
	var now uint64
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case EvDemand:
			now = ev.Clock + lag.Cycles
			if h.L2Tap != nil {
				h.tap(ev, trace.Load)
			}
			hit, stall := h.L2.Access(ev.Addr, false, ev.Dom, now)
			if !hit {
				stall += h.DRAM.Read(ev.Addr)
			}
			lag.Cycles += stall
			lag.Stall += stall
			lag.StallByDomain[ev.Dom&1] += stall
		case EvWriteback:
			if h.L2Tap != nil {
				h.tap(ev, trace.Store)
			}
			h.L2.Access(ev.Addr, true, ev.Dom, now)
		case EvPrefetch:
			if h.L2Tap != nil {
				h.tap(ev, trace.Load)
			}
			if hit, _ := h.L2.Access(ev.Addr, false, ev.Dom, now); !hit {
				h.DRAM.Read(ev.Addr) // energy/traffic, no stall
			}
		case EvIdle:
			lag.Cycles += lag.IdleCycles
			lag.Idle += lag.IdleCycles
			// Let retention controllers and leakage meters observe the
			// idle stretch immediately.
			h.Advance(ev.Clock + lag.Cycles)
		case EvSync:
			h.Advance(ev.Clock + lag.Cycles)
		}
	}
}

func (h *Hierarchy) tap(ev *Event, op trace.Op) {
	h.L2Tap(trace.Access{Addr: ev.Addr, PC: ev.PC, Op: op, Domain: ev.Dom})
}

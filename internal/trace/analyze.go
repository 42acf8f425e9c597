package trace

import "math/bits"

// Reuse-distance analysis: for each access, the number of *distinct*
// blocks touched since the previous access to the same block (LRU
// stack distance, block granularity). The distribution explains every
// cache's miss curve — a cache of capacity C blocks captures exactly
// the accesses with distance < C under LRU — and is how the synthetic
// workloads are validated against the footprints they claim to model.
//
// Each domain keeps a Fenwick (binary indexed) tree over its own
// access clock: slot t holds 1 while timestamp t is some block's
// latest access. A re-access of a block last touched at prev has
// distance live − prefix(prev), the live timestamps newer than prev;
// it then clears slot prev, and every access sets the slot of its own
// timestamp. That is O(log n) per access in a 4-byte counter per
// timestamp.

// ReuseStats summarizes one domain's reuse behaviour.
type ReuseStats struct {
	// Accesses is the number of block references analyzed.
	Accesses uint64
	// ColdMisses is the number of first-ever block touches.
	ColdMisses uint64
	// DistinctBlocks is the footprint in blocks.
	DistinctBlocks uint64
	// Hist[i] counts re-accesses whose stack distance d satisfies
	// d+1 in [2^i, 2^(i+1)) — i.e. bin 0 is an immediate re-access.
	// The last bin, 32, takes every d+1 >= 2^32.
	Hist [33]uint64
}

// CDF returns the fraction of non-cold accesses in bins 0..exp-1,
// those with stack distance d+1 < 2^exp (every reuse once exp > 32).
// That is the hit rate, excluding compulsory misses, of a fully
// associative LRU cache of 2^exp − 1 blocks.
func (r ReuseStats) CDF(exp int) float64 {
	reuses := r.Accesses - r.ColdMisses
	if reuses == 0 {
		return 0
	}
	var c uint64
	for i := 0; i < exp && i < len(r.Hist); i++ {
		c += r.Hist[i]
	}
	return float64(c) / float64(reuses)
}

// HitRateAt rounds capacityBlocks up to a power of two 2^exp and
// returns CDF(exp) scaled to all accesses, compulsory misses counted
// as misses: the fraction of accesses that are reuses with d+1 < 2^exp.
// For a power-of-two capacity that is the hit rate of a fully
// associative LRU cache one block smaller.
func (r ReuseStats) HitRateAt(capacityBlocks uint64) float64 {
	if r.Accesses == 0 {
		return 0
	}
	exp := 0
	for (uint64(1) << uint(exp)) < capacityBlocks {
		exp++
	}
	reuses := r.Accesses - r.ColdMisses
	return r.CDF(exp) * float64(reuses) / float64(r.Accesses)
}

// fenwick is a binary indexed tree over 1-based timestamps. Its
// capacity n = len−1 is a power of two, so node n spans every slot and
// holds the live count.
type fenwick []uint32

// set marks timestamp t live, doubling the capacity until t fits.
// Doubling keeps the old nodes' spans; the new top node spans every
// slot, so it takes the live count, and every other new node spans
// only empty slots, so it stays 0.
func (f *fenwick) set(t uint64) {
	for n := uint64(len(*f) - 1); t > n; n *= 2 {
		g := make(fenwick, 2*n+1)
		copy(g, *f)
		g[2*n] = (*f)[n]
		*f = g
	}
	for i := t; i < uint64(len(*f)); i += i & -i {
		(*f)[i]++
	}
}

// clear marks the live timestamp t dead.
func (f fenwick) clear(t uint64) {
	for i := t; i < uint64(len(f)); i += i & -i {
		f[i]--
	}
}

// newer counts the live timestamps after t.
func (f fenwick) newer(t uint64) uint64 {
	n := f[len(f)-1]
	for i := t; i > 0; i -= i & -i {
		n -= f[i]
	}
	return uint64(n)
}

// ReuseAnalyzer computes per-domain block-granularity reuse-distance
// distributions in a single streaming pass (O(log n) per access).
type ReuseAnalyzer struct {
	blockBytes uint64
	// last maps each block to its latest access timestamp: the
	// domain's access count at that access.
	last  [NumDomains]map[uint64]uint64
	live  [NumDomains]fenwick
	stats [NumDomains]ReuseStats
}

// NewReuseAnalyzer builds an analyzer at the given block granularity
// (must be a power of two).
func NewReuseAnalyzer(blockBytes int) *ReuseAnalyzer {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic("trace: reuse analyzer needs power-of-two blocks")
	}
	ra := &ReuseAnalyzer{blockBytes: uint64(blockBytes)}
	for d := 0; d < NumDomains; d++ {
		ra.last[d] = make(map[uint64]uint64)
		ra.live[d] = make(fenwick, 2)
	}
	return ra
}

// Observe processes one access.
func (ra *ReuseAnalyzer) Observe(a Access) {
	d := a.Domain
	if !d.Valid() {
		return
	}
	block := a.Addr / ra.blockBytes
	st := &ra.stats[d]
	st.Accesses++
	now := st.Accesses
	if prev, seen := ra.last[d][block]; seen {
		dist := ra.live[d].newer(prev)
		st.Hist[min(bits.Len64(dist+1)-1, len(st.Hist)-1)]++
		ra.live[d].clear(prev)
	} else {
		st.ColdMisses++
		st.DistinctBlocks++
	}
	ra.last[d][block] = now
	ra.live[d].set(now)
}

// Stats returns the accumulated distribution for one domain.
func (ra *ReuseAnalyzer) Stats(d Domain) ReuseStats { return ra.stats[d] }

// Analyze drains a source through a fresh analyzer.
func Analyze(src Source, blockBytes int) *ReuseAnalyzer {
	ra := NewReuseAnalyzer(blockBytes)
	for {
		a, ok := src.Next()
		if !ok {
			return ra
		}
		ra.Observe(a)
	}
}

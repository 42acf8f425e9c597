package trace

import (
	"math/rand"
	"testing"
)

func acc(addr uint64, d Domain) Access {
	return Access{Addr: addr, Op: Load, Domain: d}
}

func TestReuseAnalyzerColdMisses(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	for i := uint64(0); i < 10; i++ {
		ra.Observe(acc(i*64, User))
	}
	st := ra.Stats(User)
	if st.Accesses != 10 || st.ColdMisses != 10 || st.DistinctBlocks != 10 {
		t.Fatalf("cold stream stats wrong: %+v", st)
	}
}

func TestReuseAnalyzerImmediateReuse(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	ra.Observe(acc(0, User))
	ra.Observe(acc(8, User)) // same block, distance 0
	st := ra.Stats(User)
	if st.Hist[0] != 1 {
		t.Fatalf("immediate reuse not in bin 0: %+v", st.Hist[:4])
	}
}

func TestReuseAnalyzerStackDistance(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	// A, B, C, A: A's reuse has 2 distinct blocks in between
	// (d=2, d+1=3 -> bin 1).
	ra.Observe(acc(0*64, User))
	ra.Observe(acc(1*64, User))
	ra.Observe(acc(2*64, User))
	ra.Observe(acc(0*64, User))
	st := ra.Stats(User)
	if st.Hist[1] != 1 {
		t.Fatalf("distance-2 reuse not in bin 1: %+v", st.Hist[:4])
	}
	// Touching B again: distance 1 (only C more recent... wait, A was
	// re-touched after C). Order of recency now: A(4), C(3), B(2).
	ra.Observe(acc(1*64, User))
	st = ra.Stats(User)
	// B's distance is 2 (A and C touched since) -> bin 1 again.
	if st.Hist[1] != 2 {
		t.Fatalf("second distance-2 reuse miscounted: %+v", st.Hist[:4])
	}
}

func TestReuseAnalyzerDomainsSeparate(t *testing.T) {
	ra := NewReuseAnalyzer(64)
	// Kernel touches between user touches must not count toward the
	// user stack distance.
	ra.Observe(acc(0, User))
	for i := uint64(0); i < 8; i++ {
		ra.Observe(acc(0xffff000000000000+i*64, Kernel))
	}
	ra.Observe(acc(0, User))
	st := ra.Stats(User)
	if st.Hist[0] != 1 {
		t.Fatalf("kernel accesses polluted user distance: %+v", st.Hist[:4])
	}
}

func TestReuseAnalyzerCyclicPattern(t *testing.T) {
	// Cycling over N blocks gives every re-access distance N-1.
	const n = 16
	ra := NewReuseAnalyzer(64)
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < n; i++ {
			ra.Observe(acc(i*64, User))
		}
	}
	st := ra.Stats(User)
	// d = 15, d+1 = 16 -> bin 4.
	want := uint64(9 * n)
	if st.Hist[4] != want {
		t.Fatalf("cyclic distances: bin4 = %d, want %d (hist %v)", st.Hist[4], want, st.Hist[:6])
	}
	// A 16-block LRU cache hits all of them; an 8-block one none.
	if hr := st.HitRateAt(32); hr < 0.85 {
		t.Fatalf("hit rate at 32 blocks = %g, want high", hr)
	}
	if hr := st.HitRateAt(8); hr != 0 {
		t.Fatalf("hit rate at 8 blocks = %g, want 0", hr)
	}
}

// naiveStats is the reference analyzer: each domain keeps its blocks
// in recency order and a re-access's distance is the number of blocks
// after it, O(n) per access. Records with an invalid domain are
// skipped.
func naiveStats(recs []Access, blockBytes uint64) [NumDomains]ReuseStats {
	var out [NumDomains]ReuseStats
	var recency [NumDomains][]uint64 // most recent last
	for _, a := range recs {
		d := a.Domain
		if !d.Valid() {
			continue
		}
		block := a.Addr / blockBytes
		st := &out[d]
		st.Accesses++
		prev := -1
		for i, b := range recency[d] {
			if b == block {
				prev = i
				break
			}
		}
		if prev < 0 {
			st.ColdMisses++
			st.DistinctBlocks++
		} else {
			dist := uint64(len(recency[d]) - 1 - prev)
			i := 0
			for (uint64(1)<<uint(i+1)) <= dist+1 && i < len(st.Hist)-1 {
				i++
			}
			st.Hist[i]++
			recency[d] = append(recency[d][:prev], recency[d][prev+1:]...)
		}
		recency[d] = append(recency[d], block)
	}
	return out
}

// checkAgainstNaive compares every ReuseStats field of both domains.
func checkAgainstNaive(t *testing.T, recs []Access) {
	t.Helper()
	ra := Analyze(NewSliceSource(recs), 64)
	want := naiveStats(recs, 64)
	for d := Domain(0); d < NumDomains; d++ {
		if got := ra.Stats(d); got != want[d] {
			t.Fatalf("%d records, %s: analyzer disagrees with naive:\n got %+v\nwant %+v", len(recs), d, got, want[d])
		}
	}
}

// TestReuseAnalyzerMatchesNaive compares the analyzer with the naive
// reference on both domains interleaved, with invalid-domain records
// mixed in; a single-domain pass then ends its clock just below, at
// and just past a capacity doubling.
func TestReuseAnalyzerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 1023, 1024, 1025, 5000} {
		recs := make([]Access, n)
		for i := range recs {
			// Two in five records per valid domain, one in five
			// invalid; a small block range so most accesses reuse.
			d := []Domain{User, User, Kernel, Kernel, Domain(7)}[rng.Intn(5)]
			recs[i] = Access{Addr: uint64(rng.Intn(300))*64 + uint64(rng.Intn(64)), Op: Load, Domain: d}
		}
		checkAgainstNaive(t, recs)
	}
	// One domain alone fills its clock to exactly the capacity edges.
	for _, n := range []int{1023, 1024, 1025} {
		recs := make([]Access, n)
		for i := range recs {
			recs[i] = acc(uint64(rng.Intn(40))*64, Kernel)
		}
		checkAgainstNaive(t, recs)
	}
}

func TestAnalyzeSource(t *testing.T) {
	recs := []Access{
		acc(0, User), acc(64, User), acc(0, User),
		{Addr: 0xffff000000000000, Op: Store, Domain: Kernel},
	}
	ra := Analyze(NewSliceSource(recs), 64)
	if ra.Stats(User).Accesses != 3 || ra.Stats(Kernel).Accesses != 1 {
		t.Fatal("analyze miscounted domains")
	}
}

func TestReuseAnalyzerPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad block size accepted")
		}
	}()
	NewReuseAnalyzer(48)
}

func TestReuseStatsEmpty(t *testing.T) {
	var st ReuseStats
	if st.CDF(5) != 0 || st.HitRateAt(1024) != 0 {
		t.Fatal("empty stats should report zeros")
	}
}

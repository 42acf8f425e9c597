package cache

import (
	"testing"

	"mobilecache/internal/trace"
)

// The tags and seqs sidecars are redundant dense copies of per-line
// state kept purely for the replay hot paths: Lookup scans tags
// instead of the 64-byte line structs, and the LRU/FIFO victim scan
// reads seqs the same way. Redundant state invites divergence, so this
// property test drives a cache through randomized mixes of every
// mutation the sidecars must track — accesses (read and write, both
// domains), way gating with flushes, targeted invalidations and expiry
// marks — and re-checks the mirror invariant throughout, on every
// replacement policy:
//
//	lines[i].valid  ⇒  tags[i] == lines[i].tag && seqs[i] == lines[i].lruSeq
//	!lines[i].valid ⇒  tags[i] == invalidTag  && seqs[i] == 0
//
// plus: the frameTagsPad sentinel entries past the last set are
// invalidTag forever (the frame kernel's fixed-width scan reads them).

// checkSidecars asserts the mirror invariant over the whole array.
func checkSidecars(t *testing.T, c *Cache, when string) {
	t.Helper()
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid {
			if c.tags[i] != ln.tag {
				t.Fatalf("%s: tags[%d] = %#x, line holds %#x", when, i, c.tags[i], ln.tag)
			}
			if c.seqs[i] != ln.lruSeq {
				t.Fatalf("%s: seqs[%d] = %d, line holds %d", when, i, c.seqs[i], ln.lruSeq)
			}
		} else {
			if c.tags[i] != invalidTag {
				t.Fatalf("%s: tags[%d] = %#x for invalid line, want invalidTag", when, i, c.tags[i])
			}
			if c.seqs[i] != 0 {
				t.Fatalf("%s: seqs[%d] = %d for invalid line, want 0", when, i, c.seqs[i])
			}
		}
	}
	for i := len(c.lines); i < len(c.tags); i++ {
		if c.tags[i] != invalidTag {
			t.Fatalf("%s: sentinel tags[%d] = %#x, want invalidTag", when, i, c.tags[i])
		}
	}
}

func TestSidecarsMirrorLines(t *testing.T) {
	for pol := PolicyKind(0); pol < numPolicies; pol++ {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Name: "prop-" + pol.String(), SizeBytes: 8 * 1024, Ways: 4, BlockBytes: 64, Policy: pol}
			c := mustNew(t, cfg)
			ways := uint64(1)<<uint(cfg.Ways) - 1

			state := uint64(0x6a09e667f3bcc908) ^ uint64(pol)<<32
			next := func() uint64 {
				state ^= state >> 12
				state ^= state << 25
				state ^= state >> 27
				return state * 0x2545f4914f6cdd1d
			}

			now := uint64(0)
			for step := 0; step < 30_000; step++ {
				now++
				r := next()
				switch r % 100 {
				case 0, 1, 2: // re-gate ways (flush what is about to power off)
					mask := (r >> 8) & ways
					if mask == 0 {
						mask = 1
					}
					c.FlushWays(^mask&ways, now, nil)
					c.SetEnabledMask(mask)
					// SetEnabledMask clips domain masks and can zero them;
					// re-assert both, as the partition controllers do.
					c.SetDomainMask(0, mask)
					c.SetDomainMask(1, mask)
					checkSidecars(t, c, "after gating")
				case 3, 4: // restore full power
					c.SetEnabledMask(ways)
					c.SetDomainMask(0, ways)
					c.SetDomainMask(1, ways)
				case 5, 6: // targeted invalidation
					set := int(r>>8) % c.Sets()
					way := int(r>>32) % cfg.Ways
					c.Invalidate(set, way, now, true)
					checkSidecars(t, c, "after invalidate")
				case 7: // retention expiry
					set := int(r>>8) % c.Sets()
					way := int(r>>32) % cfg.Ways
					c.MarkExpired(set, way, now)
				default: // access: bounded tag space so hits, misses and evictions all occur
					addr := (r >> 8) % (1 << 16) * 64
					dom := trace.Domain(r >> 40 & 1)
					c.Access(addr, r>>48&1 == 0, dom, now)
				}
				if step%997 == 0 {
					checkSidecars(t, c, "periodic")
				}
			}
			checkSidecars(t, c, "final")
			if c.ValidLines() == 0 {
				t.Fatal("walk never populated the cache")
			}
		})
	}
}

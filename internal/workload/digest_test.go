package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mobilecache/internal/trace"
)

// packedDigestPath records, per profile, a digest of the packed trace
// the generator produces at digestAccesses for digestSeed. Any change
// to the generator or its samplers that moves a single record breaks
// it.
const packedDigestPath = "testdata/packed_digests.txt"

const (
	digestAccesses = 40_000
	digestSeed     = 11
)

// packedDigests packs every profile's trace, decodes it back through a
// packed cursor and hashes the binary trace encoding of the result.
func packedDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, prof := range Profiles() {
		g, err := NewGenerator(prof, digestSeed, PhaseLen(prof, digestAccesses))
		if err != nil {
			t.Fatal(err)
		}
		p := trace.Pack(g, digestAccesses)
		cur := p.Cursor()
		h := sha256.New()
		w := trace.NewWriter(h)
		for {
			a, ok := cur.Next()
			if !ok {
				break
			}
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s n=%d sha256=%x", prof.Name, p.Len(), h.Sum(nil)))
	}
	return lines
}

// TestPackedTraceDigests pins every profile's generated trace byte for
// byte against the recorded digests.
func TestPackedTraceDigests(t *testing.T) {
	raw, err := os.ReadFile(packedDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := packedDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d digests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("packed trace digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

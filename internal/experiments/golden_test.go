package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"mobilecache/internal/engine"
	"mobilecache/internal/workload"
)

// goldenPath holds one line per (seed, experiment): digests of the
// experiment's headline values (exact float bits), rendered tables,
// notes and figures at goldenAccesses over QuickOptions' apps.
const goldenPath = "testdata/suite_golden.txt"

const goldenAccesses = 60_000

var goldenSeeds = []uint64{1, 3}

// digest hashes s to a short hex string.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// resultDigest renders one experiment result as a golden line.
func resultDigest(seed uint64, res Result) string {
	var vals strings.Builder
	names := make([]string, 0, len(res.Values))
	for k := range res.Values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&vals, "%s=%016x\n", k, math.Float64bits(res.Values[k]))
	}
	var tables strings.Builder
	for _, tb := range res.Tables {
		tables.WriteString(tb.String())
	}
	figs := make([]string, 0, len(res.Figures))
	for k := range res.Figures {
		figs = append(figs, k)
	}
	sort.Strings(figs)
	var figures strings.Builder
	for _, k := range figs {
		figures.WriteString(k + "\n" + res.Figures[k])
	}
	return fmt.Sprintf("seed=%d %s values=%d:%s tables=%s notes=%s figures=%s",
		seed, res.ID, len(names), digest(vals.String()), digest(tables.String()),
		digest(strings.Join(res.Notes, "\n")), digest(figures.String()))
}

// suiteDigests runs every experiment for every golden seed on a fresh
// engine per seed.
func suiteDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, seed := range goldenSeeds {
		opts := Options{
			Accesses: goldenAccesses, Seed: seed, Apps: workload.Profiles()[:3],
			Engine: engine.New(engine.Config{}),
		}
		for _, id := range IDs() {
			res, err := Run(id, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			lines = append(lines, resultDigest(seed, res))
		}
	}
	return lines
}

// TestSuiteGolden pins every experiment's output bit for bit: values,
// tables, notes and figures must match the recorded digests, whatever
// the engine's worker count or how an experiment schedules its runs.
func TestSuiteGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := suiteDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("golden mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

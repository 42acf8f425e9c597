package sim

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/sample"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// frontendGoldenPath pins whole RunReports (exact float bits) for the
// configurations the standard-machine goldens never exercise: the
// prefetcher, a non-unit CPI, idle stretches, open-page DRAM, L1Ds
// narrower and wider than the frame kernel's scan window, warm-up,
// set sampling, and the L2 tap stream E3 captures.
const frontendGoldenPath = "testdata/frontend_golden.txt"

const frontendGoldenAccesses = 40_000

var frontendGoldenSeeds = []uint64{5, 17}

// frontendCase is one pinned configuration: a standard machine with
// edits, run with an optional warm-up and sampling spec.
type frontendCase struct {
	name    string
	machine string
	edit    func(*config.Machine)
	warmup  int
	sample  sample.Spec
}

func frontendCases() []frontendCase {
	eighth := sample.Spec{Factor: 8}
	return []frontendCase{
		{name: "prefetch", machine: "baseline-sram", edit: func(m *config.Machine) { m.Prefetch = true }},
		{name: "prefetch-dynamic", machine: "dp-sr", edit: func(m *config.Machine) { m.Prefetch = true }},
		{name: "cpi-1.5", machine: "sp-mr", edit: func(m *config.Machine) { m.BaseCPI = 1.5 }},
		{name: "idle", machine: "baseline-drowsy", edit: func(m *config.Machine) { m.IdleEvery, m.IdleCycles = 3000, 50_000 }},
		{name: "open-page", machine: "baseline-stt", edit: func(m *config.Machine) { m.DRAM.Policy = "open-page" }},
		{name: "l1d-2way", machine: "baseline-sram", edit: func(m *config.Machine) { m.L1D.Ways = 2 }},
		{name: "l1d-8way", machine: "dp", edit: func(m *config.Machine) { m.L1D.Ways = 8; m.Prefetch = true }},
		{name: "warmup", machine: "sp", warmup: 10_000},
		{name: "sample-1/8", machine: "dp-sr", sample: eighth},
		{name: "sample-1/8-warm-prefetch", machine: "baseline-sram", warmup: 8_000, sample: eighth,
			edit: func(m *config.Machine) { m.Prefetch = true }},
		{name: "everything", machine: "sp-mr", warmup: 6_000, edit: func(m *config.Machine) {
			m.Prefetch, m.BaseCPI, m.IdleEvery, m.IdleCycles = true, 1.5, 5000, 20_000
			m.DRAM.Policy = "open-page"
			m.L1D.Ways = 2
		}},
	}
}

// hashValue feeds v into h field by field: floats as their exact bit
// patterns, everything else in a canonical text form, so two values
// hash equal exactly when reflect.DeepEqual would call them equal
// (NaN payloads aside).
func hashValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(h, "f%016x;", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(h, "i%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(h, "u%d;", v.Uint())
	case reflect.Bool:
		fmt.Fprintf(h, "b%t;", v.Bool())
	case reflect.String:
		fmt.Fprintf(h, "s%q;", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
		h.Write([]byte("]"))
	case reflect.Struct:
		h.Write([]byte("{"))
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(h, "%s:", v.Type().Field(i).Name)
			hashValue(h, v.Field(i))
		}
		h.Write([]byte("}"))
	case reflect.Pointer:
		if v.IsNil() {
			h.Write([]byte("nil;"))
			return
		}
		hashValue(h, v.Elem())
	default:
		panic(fmt.Sprintf("hashValue: unsupported kind %s", v.Kind()))
	}
}

// valueDigest is a short hex digest of hashValue's rendering of x.
func valueDigest(x any) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(x))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// frontendCell resolves one case into the store-backed cell it runs.
func frontendCell(c frontendCase, prof workload.Profile, seed uint64) (Cell, error) {
	cfg, err := MachineByName(c.machine)
	if err != nil {
		return Cell{}, err
	}
	if c.edit != nil {
		c.edit(&cfg)
	}
	return Cell{Config: cfg, Profile: prof, Seed: seed,
		Accesses: frontendGoldenAccesses - c.warmup, Warmup: c.warmup, Sample: c.sample}, nil
}

// runFrontendCase runs one case through the store-aware entry point
// its warm-up and sampling spec select, or, when recorded is set,
// records its front end and replays only the back end.
func runFrontendCase(store *tracestore.Store, c frontendCase, prof workload.Profile, seed uint64, recorded bool) (RunReport, error) {
	cell, err := frontendCell(c, prof, seed)
	if err != nil {
		return RunReport{}, err
	}
	if recorded {
		want, st, err := RecordCell(store, cell)
		if err != nil {
			return RunReport{}, err
		}
		got, err := ReplayCell(cell, st)
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("replayed report differs from the recording run's")
		}
		return got, err
	}
	cfg, measure := cell.Config, cell.Accesses
	switch {
	case c.warmup > 0 && c.sample.Enabled():
		return RunWarmWorkloadFromSampled(store, cfg, prof, seed, c.warmup, measure, c.sample)
	case c.warmup > 0:
		return RunWarmWorkloadFrom(store, cfg, prof, seed, c.warmup, measure)
	case c.sample.Enabled():
		return RunWorkloadFromSampled(store, cfg, prof, seed, frontendGoldenAccesses, c.sample)
	}
	return RunWorkloadFrom(store, cfg, prof, seed, frontendGoldenAccesses)
}

// tapDigest captures the L2 tap stream of a default-machine replay, the
// way E3 feeds its sizing search, and digests every tapped record.
// With recorded set, one machine records the front end and the tapped
// machine replays only the back end.
func tapDigest(store *tracestore.Store, prof workload.Profile, seed uint64, recorded bool) (string, int, error) {
	m, err := Build(config.Default())
	if err != nil {
		return "", 0, err
	}
	var tapped []trace.Access
	m.Hier.L2Tap = func(a trace.Access) { tapped = append(tapped, a) }
	tr, err := store.GetTrace(prof, seed, frontendGoldenAccesses)
	if err != nil {
		return "", 0, err
	}
	if !recorded {
		RunTrace(m, prof.Name, tr.Cursor(), 0)
		return valueDigest(tapped), len(tapped), nil
	}
	rec, err := Build(config.Default())
	if err != nil {
		return "", 0, err
	}
	_, seg := rec.CPU.Record(tr.Cursor(), 0)
	m.CPU.Replay(&seg)
	return valueDigest(tapped), len(tapped), nil
}

// frontendGoldenLines renders one line per (seed, tier, case) plus one
// tap line per (seed, tier). The hot tier replays decoded records; a
// one-byte arena budget demotes every trace to the packed tier.
func frontendGoldenLines(t *testing.T, recorded bool) []string {
	t.Helper()
	prof := workload.Profiles()[2]
	var lines []string
	for _, seed := range frontendGoldenSeeds {
		for _, tier := range []struct {
			name   string
			budget int64
		}{{"hot", 0}, {"packed", 1}} {
			store := tracestore.New(tier.budget)
			for _, c := range frontendCases() {
				rep, err := runFrontendCase(store, c, prof, seed, recorded)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, tier.name, c.name, err)
				}
				lines = append(lines, fmt.Sprintf("seed=%d tier=%s case=%s report=%s", seed, tier.name, c.name, valueDigest(rep)))
			}
			d, n, err := tapDigest(store, prof, seed, recorded)
			if err != nil {
				t.Fatalf("seed %d %s tap: %v", seed, tier.name, err)
			}
			lines = append(lines, fmt.Sprintf("seed=%d tier=%s case=l2tap records=%d digest=%s", seed, tier.name, n, d))
		}
	}
	return lines
}

// TestFrontendGolden pins the reports of configurations outside the
// seven standard machines bit for bit, on both replay tiers, whether a
// run replays both stages frame by frame or replays the back end of a
// front end recorded on another machine.
func TestFrontendGolden(t *testing.T) {
	raw, err := os.ReadFile(frontendGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, recorded := range []bool{false, true} {
		got := frontendGoldenLines(t, recorded)
		if len(got) != len(want) {
			t.Fatalf("recorded=%t: %d golden lines, want %d; got:\n%s", recorded, len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("recorded=%t golden mismatch:\n got %s\nwant %s", recorded, got[i], want[i])
			}
		}
	}
}

package experiments

import (
	"errors"
	"testing"

	"mobilecache/internal/invariant"
	"mobilecache/internal/sim"
	"mobilecache/internal/workload"
)

// TestGoldenAuditQuickMatrix is the CI golden-audit gate: the full
// 7-machine x 3-app quick matrix must come back conservation-clean
// under strict audit. Any miscounted counter anywhere in the
// simulator fails this test with the exact violated invariant.
func TestGoldenAuditQuickMatrix(t *testing.T) {
	restore := sim.SetAuditMode(invariant.ModeStrict)
	t.Cleanup(restore)

	opts := QuickOptions()
	reports, err := matrix(opts, sim.StandardMachineNames())
	if err != nil {
		t.Fatalf("quick matrix failed under strict audit: %v", err)
	}
	// Strict mode already failed the run on any violation; belt and
	// braces, re-audit every report explicitly so the test also covers
	// the Audit entry point experiments use.
	n := 0
	for machine, byApp := range reports {
		for app, rep := range byApp {
			if vs := sim.Audit(rep); len(vs) != 0 {
				t.Errorf("%s/%s: %v", machine, app, vs)
			}
			n++
		}
	}
	if want := len(sim.StandardMachineNames()) * len(opts.Apps); n != want {
		t.Fatalf("audited %d reports, want %d", n, want)
	}
}

// TestCustomMachineRunsAudited: runs on custom-built machines (E4's
// per-app static partitions, E9's phased session) bypass the engine,
// yet a miscounted report must still fail them under strict audit.
func TestCustomMachineRunsAudited(t *testing.T) {
	restore := sim.SetAuditMode(invariant.ModeStrict)
	t.Cleanup(restore)
	restoreTamper := sim.SetAuditTamper(func(r *sim.RunReport) { r.L2.Hits[0]++ })
	t.Cleanup(restoreTamper)

	opts := Options{Accesses: 20_000, Seed: 1, Apps: workload.Profiles()[:1]}
	for _, id := range []string{"E4", "E9"} {
		_, err := Run(id, opts)
		var ie *invariant.Error
		if !errors.As(err, &ie) {
			t.Errorf("%s: tampered custom-machine report passed strict audit (err %v)", id, err)
		}
	}
}

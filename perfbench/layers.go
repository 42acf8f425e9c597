package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/engine"
	"mobilecache/internal/experiments"
	"mobilecache/internal/faultfs"
	"mobilecache/internal/sim"
	"mobilecache/internal/trace"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// traceRef names one generated trace: a profile and its seed.
type traceRef struct {
	prof workload.Profile
	seed uint64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// l1Geom is the standard machines' L1 address split (64 B blocks, 128
// sets), used when the layer pass decodes frames outside a machine.
var l1Geom = trace.FrameGeom{{BlockShift: 6, IndexMask: 127, TagShift: 7}, {BlockShift: 6, IndexMask: 127, TagShift: 7}}

// durableProbeOps is how many journal appends and atomic writes the
// layer pass times on the workload's filesystem.
const durableProbeOps = 24

// layerPass measures every simulator layer on the workload's own
// traces, calling each module's public entry point inside a span:
// generation, packing, frame decode, machine build, hot- and
// packed-tier replay and audit on all seven standard machines, an
// arena hit, a checkpoint append+sync and an atomic JSON write. Cell
// times come from observed (the workload's own gated cells, replayed
// from the packed tier with traces already resident) or, when observed
// is nil, from executing machines x traces on a fresh engine through
// the benchmark's gate. The unit costs, weighted by how often those
// cells invoke each layer, give tracing.unaccounted_share.
func layerPass(e *env, traces []traceRef, accesses int, machines []string, observed []float64) error {
	root := e.tr.begin("layers", -1)
	defer e.tr.end(root)
	std := sim.StandardMachines()
	frame := make([]trace.FramePre, 256)
	var genT, packT, decT time.Duration
	var packedBytes int64
	var total int
	builds := map[string][]float64{}
	hot, packed := map[string]time.Duration{}, map[string]time.Duration{}
	l2acc, l2miss, dram := map[string]uint64{}, map[string]uint64{}, map[string]uint64{}
	var l1, audits []float64
	for _, t := range traces {
		sp := e.tr.begin("workload.Generate", root)
		recs, err := workload.Generate(t.prof, t.seed, accesses)
		genT += e.tr.end(sp)
		if err != nil {
			return err
		}
		sp = e.tr.begin("trace.PackSlice", root)
		p := trace.PackSlice(recs)
		packT += e.tr.end(sp)
		packedBytes += p.SizeBytes()
		sp = e.tr.begin("trace.Cursor.DecodeFrame", root)
		cur := p.Cursor()
		for cur.DecodeFrame(frame, &l1Geom) > 0 {
		}
		decT += e.tr.end(sp)
		total += len(recs)

		for _, cfg := range std {
			var reps [2]sim.RunReport
			for tier := range reps {
				sp = e.tr.begin("sim.Build", root)
				m, err := sim.Build(cfg)
				builds[cfg.Name] = append(builds[cfg.Name], us(e.tr.end(sp)))
				if err != nil {
					return err
				}
				var src trace.Source
				name := "sim.RunTrace/hot"
				if tier == 0 {
					c := trace.NewSliceCursor(recs)
					src = &c
				} else {
					c := p.Cursor()
					src, name = &c, "sim.RunTrace/packed"
				}
				sp = e.tr.begin(name, root)
				reps[tier] = sim.RunTrace(m, t.prof.Name, src, 0)
				if tier == 0 {
					hot[cfg.Name] += e.tr.end(sp)
					if cfg.Name == "baseline-sram" {
						l1 = append(l1, m.Hier.L1D.MissRate())
					}
				} else {
					packed[cfg.Name] += e.tr.end(sp)
				}
				sp = e.tr.begin("sim.Audit", root)
				v := sim.Audit(reps[tier])
				audits = append(audits, us(e.tr.end(sp)))
				if len(v) > 0 {
					e.fail("audit of %s on %s: %v", cfg.Name, t.prof.Name, v[0])
				}
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				e.fail("%s on %s: packed-tier replay differs from hot-tier replay", cfg.Name, t.prof.Name)
			}
			r := reps[0]
			l2acc[cfg.Name] += r.L2.TotalAccesses()
			l2miss[cfg.Name] += r.L2.TotalMisses()
			dram[cfg.Name] += r.DRAMReads + r.DRAMWrites
		}
	}

	n := float64(total)
	c := layerCosts{
		genNS:    float64(genT) / n,
		packNS:   float64(packT) / n,
		getHitUS: arenaHitUS(e, traces[0], root),
		auditUS:  median(audits),
		buildUS:  map[string]float64{},
		hotNS:    map[string]float64{},
		packedNS: map[string]float64{},
	}
	e.set("workload.gen_ns_per_access", c.genNS, "ns")
	e.set("trace.pack_ns_per_access", c.packNS, "ns")
	e.set("trace.decode_ns_per_access", float64(decT)/n, "ns")
	e.set("trace.packed_bytes_per_access", float64(packedBytes)/n, "B")
	e.set("tracestore.get_hit_us", c.getHitUS, "us")
	e.set("invariant.audit_us_per_cell", c.auditUS, "us")
	e.set("mem.l1_miss_ratio", median(l1), "ratio")
	for _, cfg := range std {
		m := cfg.Name
		c.buildUS[m] = median(builds[m])
		c.hotNS[m] = float64(hot[m]) / n
		c.packedNS[m] = float64(packed[m]) / n
		e.set("sim.build_us."+m, c.buildUS[m], "us")
		e.set("sim.replay_hot_ns_per_access."+m, c.hotNS[m], "ns")
		e.set("sim.replay_packed_ns_per_access."+m, c.packedNS[m], "ns")
		e.set("core.l2_miss_ratio."+m, float64(l2miss[m])/float64(l2acc[m]), "ratio")
		e.set("mem.dram_per_kaccess."+m, float64(dram[m])/n*1000, "count/kaccess")
	}

	if machines == nil {
		machines = sim.StandardMachineNames()
	}
	// predicted is the cell time the unit costs explain for one cell of
	// machine m; generation and packing are charged once per trace.
	predicted := func(m string, packedTier bool) float64 {
		replay := c.hotNS[m]
		if packedTier {
			replay = c.packedNS[m]
		}
		return (c.buildUS[m] + c.auditUS + c.getHitUS + replay*float64(accesses)/1e3) / 1e3
	}
	var explained float64
	cells := observed
	if observed == nil {
		var err error
		if cells, err = gatedExecute(e, root, traces, accesses, machines); err != nil {
			return err
		}
		for _, m := range machines {
			explained += float64(len(traces)) * predicted(m, false)
		}
		explained += float64(len(traces)) * (c.genNS + c.packNS) * float64(accesses) / 1e6
	} else {
		for _, m := range machines {
			explained += float64(len(traces)) * predicted(m, true)
		}
		explained *= float64(len(cells)) / float64(len(machines)*len(traces))
	}
	var measured float64
	for _, d := range cells {
		measured += d
	}
	e.set("engine.cell_ms_p50", median(cells), "ms")
	e.set("engine.cell_ms_p90", percentile(cells, 90), "ms")
	e.set("tracing.unaccounted_share", 1-explained/measured, "ratio")
	return durableProbes(e, root)
}

// layerCosts are the unit costs the layer pass measured.
type layerCosts struct {
	genNS, packNS     float64
	getHitUS, auditUS float64
	buildUS           map[string]float64
	hotNS, packedNS   map[string]float64
}

// arenaHitUS times GetTrace hits on a resident trace. A hit costs the
// same whatever the trace length, so a short trace of the workload's
// first profile stands in.
func arenaHitUS(e *env, t traceRef, parent int) float64 {
	const hits = 200
	store := tracestore.New(0)
	if _, err := store.GetTrace(t.prof, t.seed, 1024); err != nil {
		e.fail("arena: %v", err)
		return 0
	}
	sp := e.tr.begin("tracestore.Store.GetTrace", parent)
	for i := 0; i < hits; i++ {
		if _, err := store.GetTrace(t.prof, t.seed, 1024); err != nil {
			e.fail("arena: %v", err)
		}
	}
	return us(e.tr.end(sp)) / hits
}

// gatedExecute runs machines x traces on a fresh engine with the
// benchmark's cell gate and returns each cell's time in ms.
func gatedExecute(e *env, parent int, traces []traceRef, accesses int, machines []string) ([]float64, error) {
	plan := engine.Plan{Accesses: accesses}
	for _, name := range machines {
		cfg, err := sim.MachineByName(name)
		if err != nil {
			return nil, err
		}
		for _, t := range traces {
			plan.Cells = append(plan.Cells, engine.Cell{Machine: name, Config: cfg, App: t.prof.Name, Profile: t.prof, Seed: t.seed})
		}
	}
	gate := newCellGate(e.tr, parent)
	sp := e.tr.begin("engine.Engine.Execute", parent)
	_, err := engine.New(engine.Config{Workers: e.workers}).Execute(context.Background(), plan, engine.ExecOptions{Gate: gate})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return gate.durations(), nil
}

// durableProbes times checkpoint journal append+fsync and
// faultfs.WriteJSONAtomic in the benchmark's work directory, the
// filesystem daemon stores live on.
func durableProbes(e *env, parent int) error {
	dir, err := os.MkdirTemp(e.workdir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := checkpoint.Create(filepath.Join(dir, "cells.ckpt"), 1)
	if err != nil {
		return err
	}
	payload := []byte(fmt.Sprintf(`{"probe":"%0512d"}`, 0))
	var appends, writes []float64
	for i := 0; i < durableProbeOps; i++ {
		key, err := checkpoint.KeyOf("perfbench", i)
		if err != nil {
			return err
		}
		sp := e.tr.begin("checkpoint.Journal.Append+Sync", parent)
		err = j.Append(key, payload)
		if err == nil {
			err = j.Sync()
		}
		appends = append(appends, us(e.tr.end(sp)))
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	state := map[string]any{"id": "probe", "state": "done", "completed": 6, "total": 6}
	for i := 0; i < durableProbeOps; i++ {
		sp := e.tr.begin("faultfs.WriteJSONAtomic", parent)
		err := faultfs.WriteJSONAtomic(faultfs.OS, filepath.Join(dir, "state.json"), state)
		writes = append(writes, us(e.tr.end(sp)))
		if err != nil {
			return err
		}
	}
	e.set("checkpoint.append_sync_us", median(appends), "us")
	e.set("faultfs.atomic_write_us", median(writes), "us")
	return nil
}

// setArenaMetrics records the trace arena's and the run memo's counts.
func setArenaMetrics(e *env, st tracestore.Stats, memo engine.MemoStats) {
	e.set("tracestore.generated", float64(st.Generated), "count")
	e.set("tracestore.hits", float64(st.Hits), "count")
	e.set("tracestore.demotions", float64(st.Demotions), "count")
	e.set("tracestore.evictions", float64(st.Evictions), "count")
	e.set("tracestore.hit_ratio", ratio(st.Hits, st.Hits+st.Misses), "ratio")
	e.set("engine.memo_hits", float64(memo.Hits), "count")
	e.set("engine.memo_misses", float64(memo.Misses), "count")
	e.set("engine.memo_hit_ratio", ratio(memo.Hits, memo.Hits+memo.Misses), "ratio")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// experimentsProbe times every experiment once at the probe length, for
// workloads that do not run the suite themselves.
func experimentsProbe(e *env) {
	opts := experiments.Options{
		Accesses: e.size.probeAccesses, Seed: e.seed,
		Apps: experiments.QuickOptions().Apps, Engine: engine.New(engine.Config{Workers: e.workers}),
	}
	root := e.tr.begin("experiments.probe", -1)
	defer e.tr.end(root)
	for _, id := range experiments.IDs() {
		sp := e.tr.begin("experiments.Run/"+id, root)
		_, err := experiments.Run(id, opts)
		e.set("experiments."+id+"_s", e.tr.end(sp).Seconds(), "s")
		if err != nil {
			e.fail("experiment %s: %v", id, err)
		}
	}
}

package main

// sizing is a run's input size. fullSizing is what the benchmark
// measures; the package test shrinks it.
type sizing struct {
	// suiteAccesses is paper-suite's trace length per app;
	// warmAccesses the shorter suite its set-up runs.
	suiteAccesses, warmAccesses int
	// replayTraces long traces of replayAccesses each feed replay-packed.
	replayTraces, replayAccesses int
	// jobAccesses is the trace length of every daemon-job cell;
	// jobsPerClient the jobs each of the two clients posts per timed
	// batch, warmJobs per set-up batch.
	jobAccesses, jobsPerClient, warmJobs int
	// setupReps set-ups are timed per run and their median reported;
	// at least minPasses passes (one daemon batch) are timed, enough
	// that every p90 has 10 samples beyond it.
	setupReps, minPasses int
	// probeAccesses is the experiment length, and probeJobs the jobs per
	// client, with which a traced run measures layers its workload does
	// not invoke.
	probeAccesses, probeJobs int
}

var fullSizing = sizing{
	suiteAccesses: 120_000, warmAccesses: 15_000,
	replayTraces: 3, replayAccesses: 1_000_000,
	jobAccesses: 50_000, jobsPerClient: 50, warmJobs: 8,
	setupReps: 3, minPasses: 5,
	probeAccesses: 15_000, probeJobs: 5,
}

// Package kernel implements the operating-system half of the paper's
// cross-stack defense (Section IV-B): tasks and thread groups, the
// scheduler that samples the hardware RSX counter at every context switch,
// the tgid_rsx_t structure shared by all threads of a program (Listing 1-2),
// procfs-style runtime tunables, per-process monitoring windows, and alert
// delivery.
//
// Every quantum takes one path: plan, execute, merge, deliver alerts. The
// execute phase runs core by core on the scheduler goroutine, or through a
// claim-cursor worker pool (Config.Parallel, internal/pool); either way the merge applies the
// accounting after the execute barrier in plan order, and the quantum's
// alerts reach OnAlert before the next quantum starts. When Config.Obs is
// non-nil the kernel instruments every phase: quantum counts,
// execute/merge timings, per-core busy/idle, RSX samples per switch,
// window statistics, and threshold-crossing-to-callback alert latency.
// The registry renders through the ProcStats procfs file and everything in
// OBSERVABILITY.md.
//
// Rate-model workloads (the Table II apps in internal/workload, the Table
// III miners in internal/miner) implement AnalyticWorkload on one shared
// slice routine, RunRateSlices, so an idle or benign fleet machine can
// fast-forward whole spans of quanta between monitoring-window crossings.
// Their burst noise comes from Noise, math/rand's seeded normal stream
// reproduced bit for bit as a concrete type, whose draw RunRateSlices
// takes inline. A looping ISAWorkload also implements AnalyticWorkload,
// and fast-forwards once it replays its recorded pass.
package kernel

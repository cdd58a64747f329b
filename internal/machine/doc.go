// Package machine bundles one simulated host — CPU, memory, kernel,
// decoder tag table, and observability scope — into a single self-contained
// Machine unit with no package-level state.
//
// The paper's prototype defends one host; its deployment target is cloud
// fleets where thousands of hosts run the same defense (CryptoGuard's
// setting in PAPERS.md). Machine is the unit of that scale-out: every piece
// of mutable simulation state (task lists, counters, RSX windows, caches,
// simulated clock) hangs off the Machine instance, so a process can run
// thousands of them concurrently (package fleet) with no cross-machine
// synchronization. The single deliberate sharing point is the read-mostly
// fleet-scope decoded-block cache (cpu.SharedBlocks) a fleet wires into
// every member's cpu.Config — its entries are immutable, so it too adds no
// ordering between machines.
//
// It is also the package a single-host user starts from:
//
//	m, _ := machine.New(machine.DefaultOptions())
//	m.SpawnApp(someWorkloadProfile)
//	miner.SpawnMiner(m.Kernel(), miner.Monero, 0.3, 4, 1000)
//	m.Run(2 * time.Minute)
//	for _, a := range m.Alerts() { fmt.Println(a) }
//
// A machine built from DefaultOptions carries an observability registry
// (Machine.Obs, package obs) whose metrics cover every layer; fleets set
// Kernel.Obs nil. OBSERVABILITY.md is the catalog.
package machine

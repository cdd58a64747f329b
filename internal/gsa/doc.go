// Package gsa is guest static analysis: a stdlib-only analysis library
// over isa.Program images, the static first line the runtime RSX defense
// composes with (Saad et al.'s static in-browser miner features and
// CryptoGuard's hybrid static+runtime loop, PAPERS.md).
//
// The pipeline mirrors cryptojacklint's discipline, one layer down — the
// subject is the guest program, not the simulator's Go source:
//
//   - basic-block CFG construction per function (program entry plus every
//     CALL target), using the block-boundary rules internal/cpu's block
//     cache encodes — blocks end at control transfers, HALT, or an invalid
//     opcode. The execution-engine-only splits (faultable DIV/MOD, the
//     64-instruction cap) are deliberately not reproduced: they exist for
//     fault-exact partial retires, not control flow.
//   - dominator trees (iterative Cooper–Harvey–Kennedy) and natural-loop
//     detection from back edges, with nesting depth by body containment.
//   - per-loop static scoring: RSX-tagged instruction density with callee
//     mass folded in through call-graph summaries, crypto-idiom signatures
//     (XOR/rotate chains, S-box-style sub-word loads, round-constant
//     immediates), proof-of-work loop structure (an unsigned ordered
//     compare exiting the loop — the target check — plus a load/modify/
//     store counter cell — the nonce), and trip-count bounds where
//     derivable.
//
// Analyze condenses all of it into a StaticProfile whose RiskScore ranks
// miners above benign workloads — including benign *crypto* (the sha2/
// sha3/aes/blake2b kernels), which share the miners' RSX density but not
// their PoW loop shape. Fleet admission (internal/fleet) and the
// kernel's detection-window prior (internal/kernel) consume the RiskScore;
// cmd/guestlint is the command-line face.
package gsa

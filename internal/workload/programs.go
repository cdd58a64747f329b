package workload

import (
	"darkarts/internal/isa"
	"darkarts/internal/miner"
)

// The ISA program registry: every real guest program the repo ships, under
// one roof — the benign crypto workloads, the synthetic SPEC mixes, and
// the two ISA miners. Static analysis (internal/gsa, cmd/guestlint), the
// assembler round-trip test, and fleet catalog growth all sweep it, so a
// new guest program added here is automatically ranked, drift-checked
// against the golden score manifest, and round-trip tested.

// ProgramEntry is one registry program. Build constructs a fresh image on
// each call (entries bake deterministic inputs, so repeated builds are
// bit-identical).
type ProgramEntry struct {
	Name  string
	Miner bool // true for the mining programs (the detection ground truth)
	Build func() *isa.Program
}

// XMRMinerProgram builds the Monero-style ISA miner (Keccak+AES PoW) with
// deterministic header/key and a practically unreachable share target, so
// the search loop runs indefinitely.
func XMRMinerProgram() *isa.Program {
	header := deterministicBytes(96, 47)
	key := deterministicBytes(16, 48)
	prog, _ := miner.BuildISAMinerProgram(header, key, 1<<20, 0, 1<<62)
	prog.Name = "xmr-isa"
	return prog
}

// ZecMinerProgram builds the Zcash-style ISA miner (BLAKE2b PoW) with the
// same deterministic setup.
func ZecMinerProgram() *isa.Program {
	header := deterministicBytes(96, 49)
	prog, _ := miner.BuildZcashISAMinerProgram(header, 1<<20, 0, 1<<62)
	prog.Name = "zec-isa"
	return prog
}

// ProgramRegistry returns every registry entry: benign first (crypto
// kernels, then the SPEC mixes), miners last.
func ProgramRegistry() []ProgramEntry {
	entries := []ProgramEntry{
		{Name: "sha2", Build: SHA2Program},
		{Name: "sha3", Build: SHA3Program},
		{Name: "aes", Build: AESProgram},
		{Name: "blake2b", Build: Blake2bProgram},
	}
	for _, p := range SPEC2K6() {
		entries = append(entries, ProgramEntry{Name: "spec-" + p.Name, Build: p.Program})
	}
	entries = append(entries,
		ProgramEntry{Name: "xmr-isa", Miner: true, Build: XMRMinerProgram},
		ProgramEntry{Name: "zec-isa", Miner: true, Build: ZecMinerProgram},
	)
	return entries
}

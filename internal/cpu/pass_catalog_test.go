package cpu_test

import (
	"testing"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/workload"
)

// TestCatalogPassTraces pins which fleet catalog programs replay: each
// looping crypto kernel gets a trace of its baked-message pass, with the
// pass length pinned, and the ISA miners, which never halt, get none.
func TestCatalogPassTraces(t *testing.T) {
	const base = 0x100_0000
	store := cpu.NewSharedBlocks()
	for _, c := range []struct {
		name string
		prog *isa.Program
		pass uint64 // 0: refused
	}{
		{"aes", workload.AESProgram(), 67_339},
		{"blake2b", workload.Blake2bProgram(), 19_186},
		{"keccak", workload.SHA3Program(), 74_960},
		{"sha256", workload.SHA2Program(), 60_564},
		{"xmr-isa", workload.XMRMinerProgram(), 0},
		{"zec-isa", workload.ZecMinerProgram(), 0},
	} {
		tr := store.PassTrace(c.prog, base)
		switch {
		case c.pass == 0 && tr != nil:
			t.Errorf("%s: recorded a %d-instruction pass of a program that never halts", c.name, tr.Len())
		case c.pass != 0 && tr == nil:
			t.Errorf("%s: no pass trace", c.name)
		case c.pass != 0 && tr.Len() != c.pass:
			t.Errorf("%s: pass of %d instructions, want %d", c.name, tr.Len(), c.pass)
		}
	}
}

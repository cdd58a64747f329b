package cpu_test

import (
	"testing"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/workload"
)

// TestMinerBlocksVsStep holds the block engine to the step engine on the
// real ISA miners: 2M instructions of xmr-isa and zec-isa, both in slices
// of 7 (splitting blocks everywhere) and of 1<<20.
func TestMinerBlocksVsStep(t *testing.T) {
	const budget = 2_000_000
	for _, prog := range []*isa.Program{workload.XMRMinerProgram(), workload.ZecMinerProgram()} {
		for _, slice := range []uint64{7, 1 << 20} {
			if n := cpu.RequireBlocksMatchStep(t, prog, slice, budget); n != budget {
				t.Fatalf("%s/slice=%d: retired %d of %d", prog.Name, slice, n, budget)
			}
		}
	}
}

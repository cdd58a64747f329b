package counters

import "darkarts/internal/isa"

// Bank is one hardware context's counter set. It is written by the core's
// retirement logic and read by the OS scheduler at context switches.
type Bank struct {
	rsx     uint64
	retired uint64
	cycles  uint64
	// perOp is the characterization-only opcode histogram (the moral
	// equivalent of running under Intel SDE in the paper's methodology).
	perOp      [isa.NumOps]uint64
	perOpOn    bool
	branchMiss uint64
}

// New returns a Bank with characterization counters enabled or not.
// Disabling them models the production hardware (single RSX counter).
func New(characterize bool) *Bank {
	return &Bank{perOpOn: characterize}
}

// AddRSX increments the RSX counter; called by retirement logic when an
// entry with both the R and C bits set commits.
//
//cryptojack:hotpath
func (b *Bank) AddRSX(n uint64) { b.rsx += n }

// RSX returns the cumulative RSX instruction count.
//
//cryptojack:hotpath
func (b *Bank) RSX() uint64 { return b.rsx }

// AddRetired records n retired instructions.
//
//cryptojack:hotpath
func (b *Bank) AddRetired(n uint64) { b.retired += n }

// Retired returns the cumulative retired instruction count.
func (b *Bank) Retired() uint64 { return b.retired }

// AddCycles advances the cycle counter.
//
//cryptojack:hotpath
func (b *Bank) AddCycles(n uint64) { b.cycles += n }

// Cycles returns the cumulative cycle count.
func (b *Bank) Cycles() uint64 { return b.cycles }

// AddBranchMiss records a branch misprediction.
//
//cryptojack:hotpath
func (b *Bank) AddBranchMiss() { b.branchMiss++ }

// BranchMisses returns the cumulative branch misprediction count.
func (b *Bank) BranchMisses() uint64 { return b.branchMiss }

// CountOp records one retired instance of op in the characterization
// histogram. No-op when characterization counters are disabled.
//
//cryptojack:hotpath
func (b *Bank) CountOp(op isa.Op) {
	if b.perOpOn {
		b.perOp[op]++
	}
}

// AddOpCount records n retired instances of op in the characterization
// histogram (bulk form used by rate-model workloads). No-op when disabled.
//
//cryptojack:hotpath
func (b *Bank) AddOpCount(op isa.Op, n uint64) {
	if b.perOpOn {
		b.perOp[op] += n
	}
}

// OpCount returns the characterization count for op (0 when disabled).
func (b *Bank) OpCount(op isa.Op) uint64 { return b.perOp[op] }

// Characterizing reports whether per-opcode counters are enabled.
//
//cryptojack:hotpath
func (b *Bank) Characterizing() bool { return b.perOpOn }

// Histogram returns a copy of the per-opcode histogram.
func (b *Bank) Histogram() [isa.NumOps]uint64 { return b.perOp }

// ClassCount sums characterization counts over all opcodes in class c.
func (b *Bank) ClassCount(c isa.Class) uint64 {
	var sum uint64
	for _, op := range isa.AllOps() {
		if op.Is(c) {
			sum += b.perOp[op]
		}
	}
	return sum
}

// Reset zeroes every counter (hardware reset; the OS never does this —
// it tracks deltas instead, see internal/kernel).
func (b *Bank) Reset() {
	on := b.perOpOn
	*b = Bank{perOpOn: on}
}

// IPC returns retired instructions per cycle (0 if no cycles elapsed).
func (b *Bank) IPC() float64 {
	if b.cycles == 0 {
		return 0
	}
	return float64(b.retired) / float64(b.cycles)
}

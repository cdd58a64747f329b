package kernel

import "darkarts/internal/cpu"

// NoisePos exposes the ring index of r, so the external tests can count
// the words each draw consumes.
func NoisePos(r *Noise) int { return r.pos % noiseLen }

// ISAState returns the context of t's ISA program, brought to its virtual
// position, and the bytes of its region in memory; ok is false when t runs
// no ISA program.
func ISAState(t *Task) (ctx cpu.ArchContext, region []byte, ok bool) {
	w, ok := t.workload.(*ISAWorkload)
	if !ok {
		return cpu.ArchContext{}, nil, false
	}
	ctx = *w.Context()
	return ctx, w.memo.ReadBytes(w.base, int(cpu.RegionSize(w.prog))), true
}

// Replaying reports whether t runs an ISA program that replays its
// recorded pass.
func Replaying(t *Task) bool {
	w, ok := t.workload.(*ISAWorkload)
	return ok && w.replay.Active()
}

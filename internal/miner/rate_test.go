package miner

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/isa"
	"darkarts/internal/microcode"
)

// rateBatches is the RunSlices schedule of the rate-stream pins, after
// three RunSlice calls: sizes on and beside powers of two, so a
// power-of-two noise chunk of up to 256 draws meets whole and partial
// chunks, and one fleet-sized fast-forward span.
var rateBatches = []int{1, 7, 31, 32, 33, 256, 257, 15000}

// rateCores returns one fresh single-core CPU per pinned configuration:
// characterization off and on, under the default RSX tag table and under
// a table that flips the shift, xor and or tags.
func rateCores(t testing.TB) []*cpu.Core {
	var cores []*cpu.Core
	for _, characterize := range []bool{false, true} {
		for _, alt := range []bool{false, true} {
			cfg := cpu.DefaultConfig()
			cfg.Cores = 1
			cfg.Characterize = characterize
			m, err := cpu.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if alt {
				m.InstallTagTable(microcode.NewTagTable("ROT+OR", isa.ClassRotate, isa.OR))
			}
			cores = append(cores, m.Core(0))
		}
	}
	return cores
}

func hashWords(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func hashBank(h hash.Hash64, core *cpu.Core) {
	b := core.Counters()
	hist := b.Histogram()
	hashWords(h, b.RSX(), b.Retired(), b.Cycles())
	hashWords(h, hist[:]...)
}

type minerCase struct {
	coin     Coin
	throttle float64
	threads  int
}

func (c minerCase) String() string { return fmt.Sprintf("%s/t%.1f/x%d", c.coin, c.throttle, c.threads) }

func minerCases() []minerCase {
	var cs []minerCase
	for _, coin := range []Coin{Monero, Zcash} {
		for _, throttle := range []float64{0, 0.3, 0.6} {
			for _, threads := range []int{1, 4} {
				cs = append(cs, minerCase{coin, throttle, threads})
			}
		}
	}
	return cs
}

// TestMinerRateStreamGolden pins each miner thread's slice stream: the
// counter bank and HashesDone after each call of a fixed
// RunSlice/RunSlices schedule, and the next draw of the thread's rng at
// the end, under every rateCores configuration. The pins were captured
// from the per-workload slice loops that preceded the shared kernel
// routine, so they hold RunSlice and RunSlices to that stream
// independently of the code they now share.
func TestMinerRateStreamGolden(t *testing.T) {
	pins := map[string]uint64{
		"monero/t0.0/x1": 0x002b817cf590e895,
		"monero/t0.0/x4": 0x4b067cb1f6d1e319,
		"monero/t0.3/x1": 0x76eabbb06eec2d61,
		"monero/t0.3/x4": 0x8336ffd5aebef661,
		"monero/t0.6/x1": 0x19d358fe2c44c64d,
		"monero/t0.6/x4": 0x1ffb3466a33b9549,
		"zcash/t0.0/x1":  0x3a8f8e933ea8a8fd,
		"zcash/t0.0/x4":  0x6f329d279e17a281,
		"zcash/t0.3/x1":  0xf7a9ce7ec4aadca9,
		"zcash/t0.3/x4":  0x63c286afc8a88169,
		"zcash/t0.6/x1":  0x51fded9acf9cb6d5,
		"zcash/t0.6/x4":  0x5478a674c7dd330d,
	}
	for i, c := range minerCases() {
		h := fnv.New64a()
		for _, core := range rateCores(t) {
			w := NewWorkload(c.coin, c.throttle, c.threads, int64(i+1))
			for j := 0; j < 3; j++ {
				w.RunSlice(core, 4*time.Millisecond)
				hashBank(h, core)
				hashWords(h, math.Float64bits(w.HashesDone))
			}
			for _, n := range rateBatches {
				w.RunSlices(core, 4*time.Millisecond, n)
				hashBank(h, core)
				hashWords(h, math.Float64bits(w.HashesDone))
			}
			hashWords(h, w.rng.Uint64())
		}
		want, ok := pins[c.String()]
		if got := h.Sum64(); !ok || got != want {
			t.Errorf("%q: %#016x, pinned %#016x", c, got, want)
		}
	}
}

// TestMinerRunSlicesSplitInvariant: any split of N slices into RunSlices
// calls leaves the same state as one RunSlices(N) call.
func TestMinerRunSlicesSplitInvariant(t *testing.T) {
	const total = 5000
	for ci, core := range rateCores(t) {
		ref := NewWorkload(Zcash, 0.3, 4, 7)
		ref.RunSlices(core, 4*time.Millisecond, total)
		want := fnv.New64a()
		hashBank(want, core)
		hashWords(want, math.Float64bits(ref.HashesDone), ref.rng.Uint64())

		core.Counters().Reset()
		w := NewWorkload(Zcash, 0.3, 4, 7)
		split := rand.New(rand.NewSource(int64(ci)))
		for left := total; left > 0; {
			n := min(left, split.Intn(100)+1)
			w.RunSlices(core, 4*time.Millisecond, n)
			left -= n
		}
		got := fnv.New64a()
		hashBank(got, core)
		hashWords(got, math.Float64bits(w.HashesDone), w.rng.Uint64())
		if got.Sum64() != want.Sum64() {
			t.Errorf("config %d: split run differs from one RunSlices(%d)", ci, total)
		}
	}
}

// TestMinerRateSliceFollowsDuration: the cached slice is rebuilt whenever
// the slice duration changes, including after zero-length slices.
func TestMinerRateSliceFollowsDuration(t *testing.T) {
	core := rateCores(t)[0]
	w := NewWorkload(Zcash, 0.3, 4, 7)
	for _, d := range []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond, 4 * time.Millisecond} {
		w.RunSlice(core, d)
		fresh := NewWorkload(Zcash, 0.3, 4, 7)
		fresh.RunSlice(core, d)
		if w.slice != fresh.slice || w.slice.Jitter != 0.02 {
			t.Errorf("after a %v slice: cached %+v, fresh %+v", d, w.slice, fresh.slice)
		}
	}
}

func TestMinerRunSlicesNoAllocs(t *testing.T) {
	core := rateCores(t)[0]
	w := NewWorkload(Monero, 0, 4, 1)
	for _, n := range []int{1, 15000} {
		if a := testing.AllocsPerRun(10, func() { w.RunSlices(core, 4*time.Millisecond, n) }); a != 0 {
			t.Errorf("RunSlices(n=%d) allocates %.1f times per call", n, a)
		}
	}
}

// TestNewWorkloadClampsNaNThrottle: a NaN throttle would make every
// slice's hours NaN and charge the bank uint64(NaN) instructions.
func TestNewWorkloadClampsNaNThrottle(t *testing.T) {
	if w := NewWorkload(Monero, math.NaN(), 1, 1); w.Throttle != 0 {
		t.Errorf("NewWorkload(NaN throttle).Throttle = %v, want 0", w.Throttle)
	}
}

package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
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

// TestAppRateStreamGolden pins every Table II profile's slice stream: the
// counter bank and Elapsed after each call of a fixed RunSlice/RunSlices
// schedule, and the next draw of the workload's rng at the end, under
// every rateCores configuration. The pins were captured from the
// per-workload slice loops that preceded the shared kernel routine, so
// they hold RunSlice and RunSlices to that stream independently of the
// code they now share.
func TestAppRateStreamGolden(t *testing.T) {
	pins := map[string]uint64{
		"Slack":       0xe72f972a2b6d007d,
		"WhatsDesk":   0xdfe84f48170658a5,
		"Everpad":     0x7eeb9e9fbd0b5f59,
		"AngryBirds":  0x93b45588cc3f4a85,
		"Ramme":       0x6283ad992a2e4ad5,
		"Corebird":    0xb61ce4245068fb8d,
		"Skype":       0xf1dff2300ddfa0dd,
		"Calc":        0x20836471618129f5,
		"Impress":     0x40cca59ffe59742d,
		"PDF":         0x1bd7c6e791b31409,
		"Writer":      0x08ad1c0b200f3895,
		"Draw":        0xd3f619eccf0a8d5d,
		"Gimp":        0x66a64401da8806e1,
		"Peek":        0xd56b69ab10384db5,
		"Eclipse":     0x92948346a671a189,
		"VirtualBox":  0x8599e811cbfeff9d,
		"Thunderbird": 0x9b2f6f494775ce25,
		"Calendar":    0x9688265e448ee44d,
		"Browser":     0x85ddebeb8cb36575,
		"Todoist":     0x27395ae0d4eb9775,
		"GitKraken":   0x7e78d372251f5345,
		"Spotify":     0x8bd12cd8913aa325,
	}
	for _, p := range TableIIApps() {
		h := fnv.New64a()
		for _, core := range rateCores(t) {
			w := NewAppWorkload(p)
			for i := 0; i < 3; i++ {
				w.RunSlice(core, 4*time.Millisecond)
				hashBank(h, core)
				hashWords(h, uint64(w.Elapsed))
			}
			for _, n := range rateBatches {
				w.RunSlices(core, 4*time.Millisecond, n)
				hashBank(h, core)
				hashWords(h, uint64(w.Elapsed))
			}
			hashWords(h, w.rng.Uint64())
		}
		want, ok := pins[p.Name]
		if got := h.Sum64(); !ok || got != want {
			t.Errorf("%q: %#016x, pinned %#016x", p.Name, got, want)
		}
	}
}

// TestAppRunSlicesSplitInvariant: any split of N slices into RunSlices
// calls leaves the same state as one RunSlices(N) call.
func TestAppRunSlicesSplitInvariant(t *testing.T) {
	const total = 5000
	p := TableIIApps()[4]
	for ci, core := range rateCores(t) {
		ref := NewAppWorkload(p)
		ref.RunSlices(core, 4*time.Millisecond, total)
		want := fnv.New64a()
		hashBank(want, core)
		hashWords(want, uint64(ref.Elapsed), ref.rng.Uint64())

		core.Counters().Reset()
		w := NewAppWorkload(p)
		split := rand.New(rand.NewSource(int64(ci)))
		for left := total; left > 0; {
			n := min(left, split.Intn(100)+1)
			w.RunSlices(core, 4*time.Millisecond, n)
			left -= n
		}
		got := fnv.New64a()
		hashBank(got, core)
		hashWords(got, uint64(w.Elapsed), w.rng.Uint64())
		if got.Sum64() != want.Sum64() {
			t.Errorf("config %d: split run differs from one RunSlices(%d)", ci, total)
		}
	}
}

// TestAppRateSliceFollowsDuration: the cached slice is rebuilt whenever
// the slice duration changes, including after zero-length slices.
func TestAppRateSliceFollowsDuration(t *testing.T) {
	core := rateCores(t)[0]
	p := TableIIApps()[4]
	w := NewAppWorkload(p)
	for _, d := range []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond, 4 * time.Millisecond} {
		w.RunSlice(core, d)
		fresh := NewAppWorkload(p)
		fresh.RunSlice(core, d)
		if w.slice != fresh.slice || w.slice.Jitter != p.Burstiness {
			t.Errorf("after a %v slice: cached %+v, fresh %+v", d, w.slice, fresh.slice)
		}
	}
}

func TestAppRunSlicesNoAllocs(t *testing.T) {
	core := rateCores(t)[0]
	w := NewAppWorkload(TableIIApps()[0])
	for _, n := range []int{1, 15000} {
		if a := testing.AllocsPerRun(10, func() { w.RunSlices(core, 4*time.Millisecond, n) }); a != 0 {
			t.Errorf("RunSlices(n=%d) allocates %.1f times per call", n, a)
		}
	}
}

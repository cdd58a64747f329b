package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"darkarts/internal/kernel"
	"darkarts/internal/workload"
)

// zigR is the ziggurat's base-strip boundary: only tail draws exceed it
// in magnitude.
const zigR = 3.442619855899

// noisePaths counts the ziggurat paths a stream's draws took.
type noisePaths struct{ tail, wedge int }

// compareNoise draws n normals from a seeded Noise and from
// rand.New(rand.NewSource(seed)), requires every pair and one trailing
// Uint64 to be bit-identical, and adds the slow-path draws to paths: a
// draw beyond zigR came from the base strip's tail, any other draw that
// consumed more than one word went through the wedge test.
func compareNoise(t testing.TB, seed int64, n int, paths *noisePaths) {
	t.Helper()
	var r kernel.Noise
	r.Seed(seed)
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		before := kernel.NoisePos(&r)
		got, want := r.NormFloat64(), ref.NormFloat64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: draw %d = %v, math/rand %v", seed, i, got, want)
		}
		switch {
		case math.Abs(got) > zigR:
			paths.tail++
		case kernel.NoisePos(&r) != (before+1)%607:
			paths.wedge++
		}
	}
	if got, want := r.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("seed %d: Uint64 after %d draws = %#x, math/rand %#x", seed, n, got, want)
	}
}

// TestNoiseMatchesMathRand holds Noise to math/rand's NormFloat64 stream
// bit for bit on edge seeds and on the seed of every rate-model profile
// and miner thread the repository runs, and requires both slow paths of
// the ziggurat to have been taken.
func TestNoiseMatchesMathRand(t *testing.T) {
	edge, perProfile := 5_000_000, 200_000
	if testing.Short() {
		edge, perProfile = 500_000, 20_000
	}
	var paths noisePaths
	edgeSeeds := []int64{0, 1, -1, 1 << 31, 1 << 40}
	for _, seed := range edgeSeeds {
		compareNoise(t, seed, edge, &paths)
	}
	// Miner threads (SpawnMiner and the rate pins), then Table II, the
	// wallets, SPEC and the crypto functions through Registry153.
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, p := range workload.Registry153() {
		seeds = append(seeds, p.Seed)
	}
	seen := map[int64]bool{}
	for _, seed := range seeds {
		if !seen[seed] {
			seen[seed] = true
			compareNoise(t, seed, perProfile, &paths)
		}
	}
	if paths.tail == 0 || paths.wedge == 0 {
		t.Errorf("slow paths not exercised: %d tail draws, %d wedge draws", paths.tail, paths.wedge)
	}
	t.Logf("%d draws on %d edge and %d profile seeds: %d tail, %d wedge",
		len(edgeSeeds)*edge+len(seen)*perProfile, len(edgeSeeds), len(seen), paths.tail, paths.wedge)
}

// FuzzNoise compares n draws of a seeded Noise with math/rand's, then one
// Uint64.
func FuzzNoise(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1 << 31, 1 << 40, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		var paths noisePaths
		compareNoise(t, seed, int(n), &paths)
	})
}

// BenchmarkNoise measures one NormFloat64 draw from the concrete stream
// and from the *rand.Rand it reproduces.
func BenchmarkNoise(b *testing.B) {
	b.Run("Noise", func(b *testing.B) {
		var r kernel.Noise
		r.Seed(1)
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += r.NormFloat64()
		}
		sink = sum
	})
	b.Run("rand.Rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += r.NormFloat64()
		}
		sink = sum
	})
}

var sink float64

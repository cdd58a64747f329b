// Package det is the determinism analyzer's fixture: each // want line
// seeds one violation of the serial/parallel bit-identity rules.
package det

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

func clock() int64 {
	t := time.Now() // want `time\.Now`
	return t.UnixNano()
}

func obsTimer() int64 {
	//lint:ignore determinism host wall clock feeds metrics only, never simulation state
	return time.Now().UnixNano()
}

func roll() int {
	return rand.Intn(6) // want `global rand\.Intn`
}

func seeded(r *rand.Rand) int {
	return r.Intn(6) // ok: caller-owned seeded stream
}

func newStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // ok: seeded constructors draw nothing from the global stream
}

func mergeOrder(m map[int]uint64) []int {
	var keys []int
	for k := range m { // ok: collected into a slice that is sorted below
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func emit(m map[int]uint64) uint64 {
	var sum uint64
	for _, v := range m { // want `map iteration order`
		sum = sum<<1 ^ v
	}
	return sum
}

func overSlice(s []uint64) uint64 {
	var sum uint64
	for _, v := range s { // ok: slice order is deterministic
		sum = sum<<1 ^ v
	}
	return sum
}

func threshold() string {
	return os.Getenv("CJ_THRESHOLD") // want `os\.Getenv`
}

func lookup() bool {
	_, ok := os.LookupEnv("CJ_PERIOD") // want `os\.LookupEnv`
	return ok
}

func environ() int {
	return len(os.Environ()) // want `os\.Environ`
}

func width() int {
	return runtime.GOMAXPROCS(0) // want `runtime\.GOMAXPROCS`
}

func cores() int {
	return runtime.NumCPU() // want `runtime\.NumCPU`
}

func poolWidth() int {
	//lint:ignore determinism sizes a worker pool whose width is result-invariant
	return runtime.GOMAXPROCS(0)
}

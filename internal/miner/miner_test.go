package miner

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/kernel"
)

func TestMerkleRootAndProofs(t *testing.T) {
	txs := []Tx{
		{Payload: []byte("a")}, {Payload: []byte("b")},
		{Payload: []byte("c")}, {Payload: []byte("d")}, {Payload: []byte("e")},
	}
	root := MerkleRoot(txs)
	for i := range txs {
		proof, err := MerkleProof(txs, i)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyMerkleProof(txs[i].ID(), i, proof, root) {
			t.Errorf("proof for tx %d failed", i)
		}
		// A tampered leaf must fail.
		if VerifyMerkleProof(Tx{Payload: []byte("x")}.ID(), i, proof, root) {
			t.Errorf("forged proof for tx %d verified", i)
		}
	}
	if _, err := MerkleProof(txs, 9); err == nil {
		t.Error("out-of-range proof accepted")
	}
	// Determinism and sensitivity.
	if MerkleRoot(txs) != root {
		t.Error("merkle root not deterministic")
	}
	txs[0].Payload = []byte("a'")
	if MerkleRoot(txs) == root {
		t.Error("merkle root insensitive to leaf change")
	}
}

func TestChainMineAppendVerify(t *testing.T) {
	pow := SHA256d{}       // fast baseline PoW for substrate tests
	const target = 1 << 56 // ~1/256 hashes succeed
	c := NewChain(pow, target)

	for height := 1; height <= 3; height++ {
		txs := []Tx{{Payload: []byte{byte(height)}}}
		h := c.NextHeader(txs, time.Unix(1000, 0))
		nonce, ok := Mine(pow, h, 0, 1<<16)
		if !ok {
			t.Fatal("mining budget exhausted")
		}
		h.Nonce = nonce
		if err := c.Append(Block{Header: h, Txs: txs}); err != nil {
			t.Fatalf("append %d: %v", height, err)
		}
	}
	if c.Height() != 3 {
		t.Errorf("height = %d", c.Height())
	}
	if err := c.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestChainRejectsInvalidBlocks(t *testing.T) {
	pow := SHA256d{}
	c := NewChain(pow, 1<<56)
	txs := []Tx{{Payload: []byte("t")}}
	h := c.NextHeader(txs, time.Unix(0, 0))
	nonce, _ := Mine(pow, h, 0, 1<<16)
	h.Nonce = nonce

	// Wrong merkle root.
	bad := Block{Header: h, Txs: []Tx{{Payload: []byte("other")}}}
	if err := c.Append(bad); err == nil {
		t.Error("bad merkle accepted")
	}
	// Insufficient PoW: target of 1 is unreachable.
	h2 := h
	h2.Target = 1
	if err := c.Append(Block{Header: h2, Txs: txs}); err == nil {
		t.Error("bad pow accepted")
	}
	// Wrong parent.
	h3 := h
	h3.Prev = Hash{1, 2, 3}
	if err := c.Append(Block{Header: h3, Txs: txs}); err == nil {
		t.Error("bad parent accepted")
	}
}

func TestCryptoNightLiteProperties(t *testing.T) {
	cn := &CryptoNightLite{ScratchKB: 8, Iterations: 256}
	h1 := cn.HashHeader([]byte("header-1"))
	h2 := cn.HashHeader([]byte("header-1"))
	h3 := cn.HashHeader([]byte("header-2"))
	if h1 != h2 {
		t.Error("cryptonight not deterministic")
	}
	if h1 == h3 {
		t.Error("cryptonight ignores input")
	}
	var zero Hash
	if h1 == zero {
		t.Error("zero digest")
	}
}

func TestEquihashLiteSolveVerify(t *testing.T) {
	eq := DefaultEquihash()
	header := []byte("zec-block-header")
	// Sweep nonces until a solvable instance appears (expected quickly).
	var sol Solution
	var found bool
	buf := make([]byte, len(header)+8)
	copy(buf, header)
	for n := 0; n < 64 && !found; n++ {
		buf[len(header)] = byte(n)
		sol, found = eq.Solve(buf[:len(header)+1])
		if found {
			if !eq.VerifySolution(buf[:len(header)+1], sol) {
				t.Fatal("solution does not verify")
			}
		}
	}
	if !found {
		t.Fatal("no equihash solution in 64 nonces (d too hard?)")
	}
	// Invalid solutions must fail.
	if eq.VerifySolution(header, Solution{I: 1, J: 1}) {
		t.Error("degenerate pair verified")
	}
	if eq.VerifySolution(header, Solution{I: 0, J: uint32(eq.N)}) {
		t.Error("out-of-range index verified")
	}
}

func TestPoolEndToEnd(t *testing.T) {
	pow := SHA256d{}
	pool := NewPool(pow, 1<<57, 1<<59) // share target easier than block target
	addr, err := pool.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	client, err := DialPool(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var accepted int
	for rounds := 0; rounds < 4; rounds++ {
		job, err := client.GetJob()
		if err != nil {
			t.Fatal(err)
		}
		if job.ShareTarget == 0 || len(job.RawHeader) != 96 {
			t.Fatalf("bad job: %+v", job)
		}
		nonce, ok := Mine(pow, job.Header, 0, 1<<17)
		if !ok {
			continue
		}
		ok, err = client.Submit(job.ID, nonce)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Error("no shares accepted")
	}
	stats := pool.Stats()
	if stats.SharesAccepted == 0 {
		t.Errorf("pool stats: %+v", stats)
	}
	// Bogus submissions are rejected.
	ok, err := client.Submit(9999, 1)
	if err != nil || ok {
		t.Errorf("bogus submit: ok=%v err=%v", ok, err)
	}
	if pool.Stats().SharesRejected == 0 {
		t.Error("rejection not counted")
	}
}

func TestPoolManyConcurrentMiners(t *testing.T) {
	// Distributed-substrate stress: several miner clients hammer one pool
	// concurrently; accounting must stay consistent and the chain valid.
	pow := SHA256d{}
	pool := NewPool(pow, 1<<58, 1<<60)
	addr, err := pool.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const nMiners = 6
	var wg sync.WaitGroup
	errs := make(chan error, nMiners)
	var accepted [nMiners]int
	for m := 0; m < nMiners; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			client, err := DialPool(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for round := 0; round < 3; round++ {
				job, err := client.GetJob()
				if err != nil {
					errs <- fmt.Errorf("miner %d: %w", m, err)
					return
				}
				nonce, found := Mine(pow, job.Header, uint64(m)<<32, 1<<15)
				if !found {
					continue
				}
				ok, err := client.Submit(job.ID, nonce)
				if err != nil {
					errs <- fmt.Errorf("miner %d submit: %w", m, err)
					return
				}
				if ok {
					accepted[m]++
				}
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := pool.Stats()
	var total int
	for _, a := range accepted {
		total += a
	}
	if uint64(total) != stats.SharesAccepted {
		t.Errorf("client-side accepted %d != pool-side %d", total, stats.SharesAccepted)
	}
	if stats.SharesAccepted == 0 {
		t.Error("no shares accepted across 6 miners")
	}
	if err := pool.Chain().Verify(); err != nil {
		t.Errorf("chain invalid after concurrent mining: %v", err)
	}
}

func TestCoinRatesMatchPaper(t *testing.T) {
	// Section VI-E: "Monero has an RSX rate of 5.7B instructions per min".
	if rate := RSXPerMinute(Monero) / 1e9; math.Abs(rate-5.69) > 0.1 {
		t.Errorf("Monero RSX/min = %.2fB", rate)
	}
	// Table III: Zcash ~3.0e3 B/hour => 50B/min.
	if rate := RSXPerMinute(Zcash) / 1e9; rate < 45 || rate > 55 {
		t.Errorf("Zcash RSX/min = %.2fB", rate)
	}
}

func TestEstimateProfitTableIV(t *testing.T) {
	rows := []struct {
		util     float64
		xmr, usd float64
	}{
		{1.00, 0.142, 32.78},
		{0.75, 0.106, 24.58},
		{0.50, 0.071, 16.39},
		{0.25, 0.035, 8.194},
		{0.05, 0.007, 1.639},
		{0.01, 0.001, 0.328},
	}
	for _, r := range rows {
		p := EstimateProfit(r.util)
		if math.Abs(p.XMRPerHour-r.xmr) > 0.001 {
			t.Errorf("util %.2f: XMR %.4f, want %.3f", r.util, p.XMRPerHour, r.xmr)
		}
		if math.Abs(p.USDPerHour-r.usd) > 0.02 {
			t.Errorf("util %.2f: USD %.3f, want %.3f", r.util, p.USDPerHour, r.usd)
		}
	}
	if EstimateProfit(-1).XMRPerHour != 0 || EstimateProfit(2).XMRPerHour != fullSpeedXMRPerHour {
		t.Error("clamping broken")
	}
}

func newKernel(t *testing.T, period time.Duration) *kernel.Kernel {
	t.Helper()
	machine, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Tunables.Period = period
	return kernel.New(machine, kcfg)
}

// TestDetectionAtPaperWindow runs miners under the paper's deployment
// tunables (one-minute window, 2.5B RSX/min) rather than the shortened
// windows of the tests below. A full-speed Monero miner retires ~5.7B RSX
// instructions per window, past 2^32, so a window sum or counter narrowed
// to 32 bits anywhere on the path wraps below the threshold and the alert
// is lost. Each case runs once per quantum (RunTo, metrics attached) and
// once analytically (FastForwardTo with no registry, as the fleet runs
// it); both must raise the same alerts.
func TestDetectionAtPaperWindow(t *testing.T) {
	cases := []struct {
		throttle  float64
		threads   int
		alert     bool
		past32bit bool
	}{
		{throttle: 0, threads: 1, alert: true, past32bit: true},
		{throttle: 0, threads: 4, alert: true, past32bit: true},
		{throttle: 0.52, threads: 1, alert: true},
		{throttle: 0.90, threads: 1},
	}
	const end = 61 * time.Second
	for _, c := range cases {
		t.Run(fmt.Sprintf("t%.2f/x%d", c.throttle, c.threads), func(t *testing.T) {
			run := func(fastForward bool) []kernel.Alert {
				machine, err := cpu.New(cpu.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				kcfg := kernel.DefaultConfig()
				if fastForward {
					kcfg.Obs = nil
				}
				k := kernel.New(machine, kcfg)
				SpawnMiner(k, Monero, c.throttle, c.threads, 1000)
				if !fastForward {
					k.RunTo(end)
				} else if _, ok := k.FastForwardTo(end); !ok {
					t.Fatal("FastForwardTo refused a rate-model miner on an uninstrumented kernel")
				}
				return k.Alerts()
			}
			stepped, analytic := run(false), run(true)
			if !reflect.DeepEqual(stepped, analytic) {
				t.Fatalf("RunTo alerts %+v != FastForwardTo alerts %+v", stepped, analytic)
			}
			if !c.alert {
				if len(stepped) != 0 {
					t.Fatalf("%.0f%%-throttled miner alerted: %+v", c.throttle*100, stepped)
				}
				return
			}
			if len(stepped) != 1 {
				t.Fatalf("got %d alerts in %s, want 1: %+v", len(stepped), end, stepped)
			}
			a := stepped[0]
			if a.Time != time.Minute {
				t.Errorf("alert at %s, want at the first window close (1m0s)", a.Time)
			}
			if a.RSXInWin <= 2_500_000_000 {
				t.Errorf("RSXInWin = %d, not above the 2.5B threshold", a.RSXInWin)
			}
			if c.past32bit && a.RSXInWin <= math.MaxUint32 {
				t.Errorf("RSXInWin = %d, want a window sum past 2^32 (~5.7e9)", a.RSXInWin)
			}
		})
	}
}

func TestMinerDetectedAt30PercentThrottle(t *testing.T) {
	k := newKernel(t, time.Second)
	SpawnMiner(k, Monero, 0.30, 1, 1000)
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("30 pct-throttled Monero miner evaded detection despite paper-reported detectability")
	}
}

func TestMinerDetectedJustAbove50PercentThrottle(t *testing.T) {
	// Paper: "our solution can detect such activity with throttling rates
	// that exceed 50%". 5.7B * 0.44 = 2.5B boundary.
	k := newKernel(t, time.Second)
	SpawnMiner(k, Monero, 0.52, 1, 1000)
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("52 pct-throttled miner evaded the threshold detector")
	}
}

func TestMinerEvadesAtExtremeThrottle(t *testing.T) {
	// At 90% throttle the RSX rate (0.57B/min) is under threshold: the
	// plain threshold detector must miss it (that is Figure 18's
	// motivation for the ML detector).
	k := newKernel(t, time.Second)
	SpawnMiner(k, Monero, 0.90, 1, 1000)
	k.Run(10 * time.Second)
	if len(k.Alerts()) != 0 {
		t.Error("90 pct-throttled miner tripped the plain threshold detector")
	}
}

func TestMultithreadedMinerStillDetected(t *testing.T) {
	k := newKernel(t, time.Second)
	tasks := SpawnMiner(k, Monero, 0, 4, 1000)
	if len(tasks) != 4 {
		t.Fatalf("spawned %d tasks", len(tasks))
	}
	for _, task := range tasks[1:] {
		if task.Tgid != tasks[0].Tgid {
			t.Fatal("threads have different tgids")
		}
	}
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("4-thread miner evaded detection")
	}
}

func TestZcashDetected(t *testing.T) {
	k := newKernel(t, time.Second)
	SpawnMiner(k, Zcash, 0, 1, 1000)
	if !k.RunUntilAlert(10 * time.Second) {
		t.Error("Zcash miner evaded detection")
	}
}

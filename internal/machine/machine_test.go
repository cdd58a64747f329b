package machine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"darkarts/internal/isa"
	"darkarts/internal/kernel"
	"darkarts/internal/miner"
)

// testOptions returns a machine with a short monitoring window so miners
// alert within a few simulated seconds, fleet-style (no private registry,
// serial in-machine scheduling).
func testOptions() Options {
	o := DefaultOptions()
	o.Kernel.Parallel = false
	o.Kernel.Obs = nil
	o.Kernel.Tunables.Period = 2 * time.Second
	return o
}

// TestMachineDetectsMiner: the assembled unit still implements the paper's
// pipeline end to end.
func TestMachineDetectsMiner(t *testing.T) {
	m, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)
	if !m.RunUntilAlert(10 * time.Second) {
		t.Fatal("no alert within 10s of simulated time")
	}
	alerts := m.Alerts()
	if len(alerts) == 0 || alerts[0].Name != "monero" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

// TestMachinesIndependent: two machines driven from separate goroutines
// with identical configs produce identical alert histories — the no-
// package-level-state property fleet sharding rests on.
func TestMachinesIndependent(t *testing.T) {
	build := func() *Machine {
		m, err := New(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)
		return m
	}
	a, b := build(), build()
	var wg sync.WaitGroup
	for _, m := range []*Machine{a, b} {
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			m.Run(5 * time.Second)
		}(m)
	}
	wg.Wait()
	if !reflect.DeepEqual(a.Alerts(), b.Alerts()) {
		t.Fatalf("independent machines diverged:\n a %+v\n b %+v", a.Alerts(), b.Alerts())
	}
	if a.Now() != b.Now() {
		t.Fatalf("clocks diverged: %s vs %s", a.Now(), b.Now())
	}
}

// TestMachineSharedTagTable: two machines built around one TagTable
// instance report the same generation to their decode stages (the fleet
// block-sharing prerequisite), while separately built machines do not.
func TestMachineSharedTagTable(t *testing.T) {
	table, err := TagTableByName("rsx")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.TagTable = table
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ag, bg := a.CPU().TagTable().Gen(), b.CPU().TagTable().Gen(); ag != bg {
		t.Fatalf("shared-table machines have generations %d and %d", ag, bg)
	}
	c, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cg := c.CPU().TagTable().Gen(); cg == a.CPU().TagTable().Gen() {
		t.Fatal("separately built machines unexpectedly share a generation")
	}
}

// TestMachineBadTagSet: construction validates the tag set.
func TestMachineBadTagSet(t *testing.T) {
	opts := testOptions()
	opts.TagSet = "everything"
	if _, err := New(opts); err == nil {
		t.Fatal("unknown tag set accepted")
	}
}

// TestMachineRejectsBadTunables: construction refuses the tunables procfs
// would refuse, judged against the kernel's resolved time slice.
func TestMachineRejectsBadTunables(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Options)
		ok   bool
	}{
		{"zero period selects defaults", func(o *Options) { o.Kernel.Tunables = kernel.Tunables{} }, true},
		{"flagged window of one slice", func(o *Options) { o.Kernel.Tunables.Period = 16 * time.Millisecond }, true},
		{"flagged window under a slice", func(o *Options) { o.Kernel.Tunables.Period = 15 * time.Millisecond }, false},
		{"period under a slice", func(o *Options) {
			o.Kernel.Tunables.Period = time.Millisecond
			o.Kernel.Tunables.StaticPriorDivisor = 0
		}, false},
		{"period under a custom slice", func(o *Options) { o.Kernel.TimeSlice = time.Second }, false},
		{"zero threshold", func(o *Options) { o.Kernel.Tunables.ThresholdPerMin = 0 }, false},
	} {
		opts := testOptions()
		tc.set(&opts)
		_, err := New(opts)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestMachineProcFS: the per-machine tunables surface works through the
// unit wrapper.
func TestMachineProcFS(t *testing.T) {
	m, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ProcFS().Write(kernel.ProcThreshold, "1000000"); err != nil {
		t.Fatal(err)
	}
	v, err := m.ProcFS().Read(kernel.ProcThreshold)
	if err != nil || v != "1000000" {
		t.Fatalf("threshold readback = %q, %v", v, err)
	}
}

// TestSpawnProgramRejectsInvalidImage: validation happens once, at load,
// so a malformed image is refused before it can reach a core — with the
// same error the loader has always reported.
func TestSpawnProgramRejectsInvalidImage(t *testing.T) {
	m, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bad  isa.Inst
		what string
	}{
		{"bad-branch", isa.Inst{Op: isa.JMP, Imm: 7}, "branch target out of range"},
		{"bad-reg", isa.Inst{Op: isa.MOVI, Rd: isa.NumRegs}, "register out of range"},
	} {
		prog := &isa.Program{Name: tc.name, Code: []isa.Inst{{Op: isa.NOP}, tc.bad, {Op: isa.HALT}}}
		want := fmt.Sprintf("spawn %s: new context: program %q: instruction 1 (%s): %s", tc.name, tc.name, tc.bad, tc.what)
		if _, err := m.SpawnProgram(tc.name, prog, 1_000_000); err == nil || err.Error() != want {
			t.Errorf("SpawnProgram(%s) error = %v, want %q", tc.name, err, want)
		}
	}
	if n := len(m.Kernel().Tasks()); n != 0 {
		t.Fatalf("rejected images left %d tasks behind", n)
	}
}

package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildLint compiles the cryptojacklint binary into a temp dir once per
// test that needs it.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cryptojacklint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building cryptojacklint: %v\n%s", err, out)
	}
	return bin
}

// TestVictimFixture runs the built binary against the seeded-violation
// fixture and golden-diffs the diagnostics and exit code: one finding per
// analyzer, the //lint:ignore site absent, exit status 1.
func TestVictimFixture(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-sim-pkgs=victim", "testdata/src/victim")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit status 1, got err=%v\nstderr:\n%s", err, stderr.String())
	}
	if code := exit.ExitCode(); code != 1 {
		t.Fatalf("want exit status 1, got %d\nstderr:\n%s", code, stderr.String())
	}

	want, err := os.ReadFile(filepath.Join("testdata", "victim.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("diagnostics differ from testdata/victim.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestAnnotatedTreeClean is the acceptance gate in test form: the whole
// annotated module must lint clean with all six analyzers. The Makefile's
// test and race targets skip it: `make lint` runs the same whole-module
// lint once, under a wall-clock budget.
func TestAnnotatedTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is a few seconds; skipped in -short")
	}
	bin := buildLint(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cryptojacklint ./... failed: %v\n%s", err, out)
	}
}

// TestListFlag checks -list names every analyzer exactly once.
func TestListFlag(t *testing.T) {
	bin := buildLint(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("cryptojacklint -list: %v\n%s", err, out)
	}
	for _, name := range []string{
		"determinism", "locksetflow", "lockorder", "hotpath",
		"hosttaint", "sharecheck",
	} {
		if !bytes.Contains(out, []byte(name)) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
}

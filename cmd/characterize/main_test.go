package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSHA3(t *testing.T) {
	if err := run([]string{"-workload", "sha3", "-window", "300000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSPEC(t *testing.T) {
	if err := run([]string{"-workload", "spec-povray", "-window", "200000", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunISAMiner(t *testing.T) {
	if err := run([]string{"-workload", "xmr-isa", "-window", "200000", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if err := run([]string{"-workload", "doom"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

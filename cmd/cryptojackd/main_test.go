package main

import (
	"strings"
	"testing"
)

func TestRunInfectedDetects(t *testing.T) {
	err := run([]string{"-duration", "90s", "-period", "30s", "-threads", "4"})
	if err != nil {
		t.Fatalf("infected run: %v", err)
	}
}

func TestRunCleanIsQuiet(t *testing.T) {
	if err := run([]string{"-clean", "-duration", "60s", "-period", "20s"}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}

func TestRunZcashRSXO(t *testing.T) {
	err := run([]string{"-coin", "zcash", "-tags", "rsxo", "-duration", "60s", "-period", "20s"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-tags", "bogus", "-duration", "1s"}); err == nil {
		t.Error("bogus tag set accepted")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// A 1ms period leaves flagged groups a 250µs window, shorter than the
	// 4ms quantum: every context switch would alert.
	for _, args := range [][]string{
		{"-duration", "2s", "-period", "1ms"},
		{"-fleet", "2", "-duration", "2s", "-period", "1ms"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "time slice") {
			t.Errorf("run(%q) = %v, want an error naming the time slice", args, err)
		}
	}
}

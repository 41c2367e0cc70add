package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunPaperWalkthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the default Mondial dataset")
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-db", "mondial",
		"-columns", "3",
		"-sample", "California || Nevada | Lake Tahoe | ",
		"-metadata", " |  | DataType=='decimal' AND MinValue>='0'",
		"-results",
		"-max-results", "2",
		"-explain", "ascii",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"SELECT", "geo_lake", "Lake Tahoe", "Projected attributes:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-db", "unknown"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown database should fail")
	}
	if err := run(context.Background(), []string{"-db", "mondial", "-columns", "2", "-sample", ">= | x"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad constraint cell should fail")
	}
	if err := run(context.Background(), []string{"-bogus-flag"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run(context.Background(), []string{
		"-db", "mondial", "-columns", "2",
		"-sample", "Lake Tahoe | California",
		"-explain", "nonsense",
	}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown explain mode should fail")
	}
}

func TestSampleFlags(t *testing.T) {
	var s sampleFlags
	if err := s.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("b"); err != nil {
		t.Fatal(err)
	}
	if s.String() != "a; b" || len(s) != 2 {
		t.Errorf("sampleFlags = %q", s.String())
	}
}

func TestSessionModeRefineLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the default Mondial dataset")
	}
	// Seed with the paper constraints, run, refine the Area cell, run
	// again (reuses cached outcomes), inspect stats, and quit.
	script := strings.Join([]string{
		"run",
		"set 1 3 [400, 600]",
		"run",
		"stats",
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-db", "mondial",
		"-columns", "3",
		"-sample", "California || Nevada | Lake Tahoe | ",
		"-metadata", " |  | DataType=='decimal' AND MinValue>='0'",
		"-session",
	}, strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"round 1:", "round 2:", "SELECT",
		"cache=",             // round 2's summary reports reuse
		"hits",               // stats output
		"validations saved)", // the saved-validation counter
	} {
		if !strings.Contains(text, want) {
			t.Errorf("session output missing %q:\n%s", want, text)
		}
	}
}

func TestSessionModeStartsEmpty(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the default Mondial dataset")
	}
	// No -sample flags: the description is built at the prompt.
	script := strings.Join([]string{
		"help",
		"sample California || Nevada | Lake Tahoe | ",
		"show",
		"run",
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-db", "mondial", "-columns", "3", "-session",
	}, strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "round 1:") || !strings.Contains(out.String(), "SELECT") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestSessionModeBadCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the default Mondial dataset")
	}
	script := strings.Join([]string{
		"bogus",
		"set x 1 y",               // bad row number
		"remove 1",                // no rounds yet
		"meta 1 DataType=='text'", // no -metadata and no rounds yet
		"sample Lake Tahoe | ",    // valid row, so 'set' below has a target
		"set 1 1 >=",              // malformed cell: rejected at queue time
		"reset",                   // discarding queued edits always works
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-db", "mondial", "-columns", "2", "-session",
	}, strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"unknown command", "bad row", "no rounds yet", "-metadata", "expected a constant"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

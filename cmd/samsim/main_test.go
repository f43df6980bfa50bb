package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSmokeSequential simulates a small statement end-to-end and checks the
// report shape and the gold check.
func TestSmokeSequential(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-expr", "x(i) = B(i,j) * c(j)",
		"-dims", "i=30,j=24", "-density", "0.2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"expression:", "graph:", "cycles:", "output:", "gold check:  PASSED"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestOutputDeterministic runs one five-operand command twenty times and
// requires identical stdout: the "input" lines come out in name order, not
// in the order a map happens to range. It also pins which engines have a
// "cycles:" line — the cycle engines do, comp has no cycle model to report.
func TestOutputDeterministic(t *testing.T) {
	args := []string{
		"-expr", "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)",
		"-dims", "i=30,j=24", "-density", "0.2", "-engine", "comp",
	}
	var first string
	for run := 0; run < 20; run++ {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		if run == 0 {
			first = stdout.String()
		} else if got := stdout.String(); got != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", run, got, first)
		}
	}
	var names []string
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "input" {
			names = append(names, f[1])
		}
	}
	if want := []string{"B:", "alpha:", "beta:", "c:", "d:"}; !slices.Equal(names, want) {
		t.Errorf("input lines name %v, want %v in that order:\n%s", names, want, first)
	}
	if strings.Contains(first, "cycles:") {
		t.Errorf("comp output has a cycles line; comp has no cycle model:\n%s", first)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain(append(args[:len(args)-1:len(args)-1], "event"), &stdout, &stderr); code != 0 {
		t.Fatalf("event: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cycles:") {
		t.Errorf("event output lost its cycles line:\n%s", stdout.String())
	}
}

// TestSmokeParallel runs the same statement across 4 lanes on each engine.
func TestSmokeParallel(t *testing.T) {
	for _, eng := range []string{"", "naive", "comp"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{
			"-expr", "x(i) = B(i,j) * c(j)",
			"-dims", "i=30,j=24", "-density", "0.2",
			"-par", "4", "-engine", eng,
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("engine %q: exit %d, stderr: %s", eng, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{"lanes:       4", "gold check:  PASSED"} {
			if !strings.Contains(out, want) {
				t.Errorf("engine %q: output missing %q:\n%s", eng, want, out)
			}
		}
	}
}

// TestSmokeErrors checks the failure paths exit nonzero with a diagnostic.
func TestSmokeErrors(t *testing.T) {
	cases := [][]string{
		{},                  // missing -expr
		{"-expr", "x(i) ="}, // parse error
		{"-expr", "x(i) = B(i,j)", "-order", "i"}, // incomplete loop order
		{"-expr", "x(i) = B(i,j)", "-par", "-2"},  // bad lane count
		{"-expr", "x(i) = B(i,j)", "-engine", "warp"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("args %v: no diagnostic on stderr", args)
		}
	}
}

// TestSmokeSkip runs the galloping-intersection rewrite on a cycle engine.
func TestSmokeSkip(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-expr", "x(i) = b(i) * c(i)",
		"-dims", "i=40", "-density", "0.3", "-skip",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "gold check:  PASSED") {
		t.Errorf("output missing gold check:\n%s", stdout.String())
	}
}

// TestSmokeOptimized runs the same statement at -O 1 on every engine: the
// gold check must still pass and the optimizer line must report its delta.
func TestSmokeOptimized(t *testing.T) {
	for _, eng := range []string{"", "naive", "comp"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{
			"-expr", "X(i,j) = B(i,j) * B(i,j)",
			"-dims", "i=20,j=16", "-density", "0.2",
			"-O", "1", "-engine", eng,
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("engine %q: exit %d, stderr: %s", eng, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{"optimizer:   -O1 removed", "gold check:  PASSED"} {
			if !strings.Contains(out, want) {
				t.Errorf("engine %q: output missing %q:\n%s", eng, want, out)
			}
		}
	}
}

// TestDotPrintsGraph checks -dot prints Graphviz instead of simulating, and
// that -O 1 shrinks the printed graph.
func TestDotPrintsGraph(t *testing.T) {
	render := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-expr", "X(i,j) = B(i,j) * B(i,j)", "-dot"}, extra...)
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("args %v: exit %d, stderr: %s", args, code, stderr.String())
		}
		out := stdout.String()
		if !strings.HasPrefix(out, "digraph") || strings.Contains(out, "cycles:") {
			t.Fatalf("-dot should print DOT only:\n%s", out)
		}
		return out
	}
	plain := render()
	optimized := render("-O", "1")
	if strings.Count(optimized, "\n") >= strings.Count(plain, "\n") {
		t.Errorf("-O 1 -dot did not shrink the graph:\nO0:\n%s\nO1:\n%s", plain, optimized)
	}
}

// TestUnknownEngineListsRegistered checks a bad -engine — the removed flow
// and byte kinds included — fails with exactly the registered engine list
// instead of a bare error.
func TestUnknownEngineListsRegistered(t *testing.T) {
	for _, eng := range []string{"bogus", "flow", "byte"} {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{
			"-expr", "x(i) = b(i) * c(i)", "-engine", eng,
		}, &stdout, &stderr)
		if code == 0 {
			t.Fatalf("-engine %s: exit 0, want failure", eng)
		}
		if msg := stderr.String(); !strings.Contains(msg, `registered engines: "event", "naive", "comp")`) {
			t.Errorf("-engine %s: diagnostic %q does not list exactly the registered engines", eng, msg)
		}
	}
}

// TestSmokeCompSkip checks the compiled engine runs gallop (UseSkip) graphs.
func TestSmokeCompSkip(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-expr", "x(i) = b(i) * c(i)",
		"-dims", "i=200", "-density", "0.2",
		"-skip", "-engine", "comp",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "gold check:  PASSED") {
		t.Errorf("gold check missing:\n%s", stdout.String())
	}
}

// TestEmitLoadRoundTrip drives the artifact workflow end to end in-process:
// -emit writes a portable artifact without simulating, -load runs it on the
// comp engine (the default there) with the gold check passing, and a
// cycle-engine request against the artifact fails up front — artifacts carry
// no source graph to simulate.
func TestEmitLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spmv.sambc")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-expr", "x(i) = B(i,j) * c(j)",
		"-par", "4", "-O", "1",
		"-emit", path,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("emit: exit %d, stderr: %s", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "wrote") || strings.Contains(out, "cycles:") {
		t.Fatalf("-emit should write the artifact and skip simulation:\n%s", out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("emitted artifact missing: %v", err)
	}

	for _, eng := range []string{"", "comp"} {
		stdout.Reset()
		stderr.Reset()
		code = realMain([]string{
			"-load", path, "-engine", eng,
			"-dims", "i=30,j=24", "-density", "0.2",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("load (engine %q): exit %d, stderr: %s", eng, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{"artifact:", "expression:", "fingerprint:", "engine:      comp", "gold check:  PASSED"} {
			if !strings.Contains(out, want) {
				t.Errorf("load (engine %q): output missing %q:\n%s", eng, want, out)
			}
		}
	}

	// Cycle engines need the source graph; a loaded artifact has none.
	stdout.Reset()
	stderr.Reset()
	if code = realMain([]string{"-load", path, "-engine", "event"}, &stdout, &stderr); code == 0 {
		t.Fatal("loading an artifact on the event engine should fail")
	}
	if stderr.Len() == 0 {
		t.Error("no diagnostic for the event-engine artifact load")
	}
	// The old artifact-engine name is gone, not an alias for comp.
	stderr.Reset()
	if code = realMain([]string{"-load", path, "-engine", "byte"}, &stdout, &stderr); code == 0 {
		t.Fatal(`loading an artifact with -engine byte should fail`)
	}
	if !strings.Contains(stderr.String(), "unknown engine") {
		t.Errorf("-load -engine byte: diagnostic %q, want unknown engine", stderr.String())
	}
}

// TestFlagCombinationValidation checks illegal engine/flag combinations
// fail up front with a diagnostic naming the conflict, not mid-run.
func TestFlagCombinationValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-expr", "x(i) = b(i) * c(i)", "-engine", "comp", "-queue", "4"}, "-queue"},
		{[]string{"-expr", "x(i) = b(i) * c(i)", "-O", "2"}, "unknown -O level 2"},
		{[]string{"-expr", "x(i) = b(i) * c(i)", "-O", "-1"}, "unknown -O level -1"},
		{[]string{"-expr", "x(i) = b(i)", "-load", "a.sambc"}, "-load"},
		{[]string{"-load", "a.sambc", "-emit", "b.sambc"}, "-emit"},
		{[]string{"-load", "a.sambc", "-O", "1"}, "-O shapes compilation"},
		{[]string{"-load", "a.sambc", "-par", "4"}, "-par shapes compilation"},
		{[]string{"-load", "a.sambc", "-skip"}, "-skip shapes compilation"},
		{[]string{"-load", "a.sambc", "-locate"}, "-locate shapes compilation"},
		{[]string{"-load", "a.sambc", "-order", "i,j"}, "-order shapes compilation"},
		{[]string{"-load", "a.sambc", "-dot"}, "-dot shapes compilation"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(c.args, &stdout, &stderr); code == 0 {
			t.Errorf("args %v: exit 0, want failure", c.args)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("args %v: diagnostic %q missing %q", c.args, stderr.String(), c.want)
		}
	}
}

// TestTraceBreakdown checks -trace prints the span tree after the summary:
// compile-path runs show compile/bind/run/assemble, a parallel compiled run
// nests lane children under run, and -load mode shows decode instead of
// compile. Without -trace no trace line appears.
func TestTraceBreakdown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-expr", "x(i) = B(i,j) * c(j)",
		"-dims", "i=30,j=24", "-density", "0.2",
		"-par", "2", "-engine", "comp", "-trace",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"trace:       t", "compile", "bind", "run", "lane0", "lane1", "assemble"} {
		if !strings.Contains(out, want) {
			t.Errorf("traced output missing %q:\n%s", want, out)
		}
	}

	stdout.Reset()
	stderr.Reset()
	code = realMain([]string{
		"-expr", "x(i) = B(i,j) * c(j)",
		"-dims", "i=30,j=24", "-density", "0.2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("untraced exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "trace:") {
		t.Errorf("untraced run printed a trace:\n%s", stdout.String())
	}

	art := filepath.Join(t.TempDir(), "trace.sambc")
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-expr", "x(i) = B(i,j) * c(j)", "-emit", art}, &stdout, &stderr); code != 0 {
		t.Fatalf("emit exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	code = realMain([]string{"-load", art, "-trace"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-load -trace exit %d, stderr: %s", code, stderr.String())
	}
	out = stdout.String()
	for _, want := range []string{"trace:       t", "decode", "bind", "run", "assemble"} {
		if !strings.Contains(out, want) {
			t.Errorf("-load traced output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "compile") {
		t.Errorf("-load trace shows a compile span; artifacts are pre-compiled:\n%s", out)
	}
}

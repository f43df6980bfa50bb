package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmokeParallelJSON runs Figure 12 — the experiment that goes through
// SimulateBatch's worker pool — at a small scale and golden-checks the -json
// envelope, host-parallelism fields included, and the row shape.
func TestSmokeParallelJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "fig12", "-scale", "0.3", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var records []jsonResult
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(records) != 1 || records[0].Experiment != "fig12" {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Engine != "event" || records[0].Scale != 0.3 {
		t.Errorf("record metadata = %+v", records[0])
	}
	if records[0].CPUs < 1 || records[0].GoMaxProcs < 1 {
		t.Errorf("record cpus/gomaxprocs = %d/%d, want >= 1", records[0].CPUs, records[0].GoMaxProcs)
	}
	rows, ok := records[0].Data.([]any)
	if !ok {
		t.Fatalf("data is %T, want a row list", records[0].Data)
	}
	// One row per index order of i, j, k.
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	row, ok := rows[0].(map[string]any)
	if !ok {
		t.Fatalf("row is %T", rows[0])
	}
	for _, field := range []string{"Order", "Cycles"} {
		if _, ok := row[field]; !ok {
			t.Errorf("row missing field %q: %v", field, row)
		}
	}
}

// TestSmokeTextOutput checks the plain text rendering of a small experiment.
func TestSmokeTextOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "fig12", "-scale", "0.05"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Figure 12", "Index order", "ijk", "completed in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentListValidatedFirst checks a bad name anywhere in -exp fails
// before the experiments ahead of it run: exit 1, nothing on stdout (text or
// -json), and the ten valid names on stderr.
func TestExperimentListValidatedFirst(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig15,bogus"},
		{"-exp", "fig15,bogus", "-json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 1 {
			t.Errorf("args %v: exit %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("args %v: stdout %q, want empty", args, stdout.String())
		}
		want := "table1, table2, fig11, fig12, fig13a, fig13b, fig13c, fig14, fig15, pointlevel)"
		if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) || !strings.Contains(stderr.String(), want) {
			t.Errorf("args %v: stderr %q, want unknown experiment \"bogus\" and the list %q", args, stderr.String(), want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-exp", "fig15,table1,fig15"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 {
		t.Errorf("duplicate name: exit %d, stdout %q, want 1 and empty", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), `"fig15" listed twice`) {
		t.Errorf("duplicate name: stderr %q does not name the repeated experiment", stderr.String())
	}
}

// TestSmokeBadFlags checks the error paths exit nonzero without panicking.
// The ten per-PR studies and -par were removed (the repository's benchmark is
// bench/); each is an unknown experiment or an undefined flag like any other.
func TestSmokeBadFlags(t *testing.T) {
	type badCase struct {
		args []string
		code int
		want string // on stderr
	}
	cases := []badCase{
		{[]string{"-engine", "warp"}, 1, `unknown engine "warp"`},
		{[]string{"-exp", "fig12", "-par", "4"}, 2, "flag provided but not defined: -par"},
	}
	for _, name := range []string{"nope", "engines", "parallel", "serve", "opt", "comp", "throughput", "artifact", "obs", "state", "shard"} {
		cases = append(cases, badCase{[]string{"-exp", name}, 1, `unknown experiment "` + name + `"`})
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("args %v: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("args %v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestUnknownEngineListsRegistered checks a bad -engine (the removed flow
// and byte kinds included) prints exactly the registered engine list, and
// that comp, registered but without a cycle model, is rejected with a
// pointer to the cycle engines rather than the unknown-engine error.
func TestUnknownEngineListsRegistered(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, eng := range []string{"bogus", "flow", "byte"} {
		stderr.Reset()
		if code := realMain([]string{"-engine", eng}, &stdout, &stderr); code == 0 {
			t.Fatalf("engine %q: exit 0, want failure", eng)
		}
		if msg := stderr.String(); !strings.Contains(msg, `registered engines: "event", "naive", "comp")`) {
			t.Errorf("engine %q: diagnostic %q does not list exactly the registered engines", eng, msg)
		}
	}
	stderr.Reset()
	if code := realMain([]string{"-engine", "comp"}, &stdout, &stderr); code == 0 {
		t.Fatal("engine comp: exit 0, want failure")
	}
	if !strings.Contains(stderr.String(), "no cycle model") {
		t.Errorf("engine comp: diagnostic %q does not explain the cycle-model requirement", stderr.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmokeParallelJSON runs the parallel experiment at a tiny scale and
// golden-checks the -json output shape.
func TestSmokeParallelJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "parallel", "-scale", "0.05", "-par", "1,2,4", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var records []jsonResult
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(records) != 1 || records[0].Experiment != "parallel" {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Engine != "event" || records[0].Scale != 0.05 {
		t.Errorf("record metadata = %+v", records[0])
	}
	rows, ok := records[0].Data.([]any)
	if !ok {
		t.Fatalf("data is %T, want a row list", records[0].Data)
	}
	// 3 kernels x 3 lane counts.
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	row, ok := rows[0].(map[string]any)
	if !ok {
		t.Fatalf("row is %T", rows[0])
	}
	for _, field := range []string{"kernel", "lanes", "cycles", "speedup_vs_1"} {
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

// TestSmokeServeJSON runs the serving study at a tiny scale and checks the
// -json record carries both the cache and scaling sections.
func TestSmokeServeJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "serve", "-scale", "0.05", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var records []jsonResult
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(records) != 1 || records[0].Experiment != "serve" {
		t.Fatalf("records = %+v", records)
	}
	data, ok := records[0].Data.(map[string]any)
	if !ok {
		t.Fatalf("data is %T, want an object", records[0].Data)
	}
	for _, section := range []string{"cpus", "cache", "scaling"} {
		if _, ok := data[section]; !ok {
			t.Errorf("data missing section %q", section)
		}
	}
}

// TestSmokeThroughputJSON runs the throughput study at a tiny scale and
// checks the -json record carries the lane, alloc and serve sections plus
// the host-parallelism fields every BENCH row must pin.
func TestSmokeThroughputJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-exp", "throughput", "-scale", "0.05", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var records []jsonResult
	if err := json.Unmarshal(stdout.Bytes(), &records); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(records) != 1 || records[0].Experiment != "throughput" {
		t.Fatalf("records = %+v", records)
	}
	if records[0].CPUs < 1 || records[0].GoMaxProcs < 1 {
		t.Errorf("record cpus/gomaxprocs = %d/%d, want >= 1", records[0].CPUs, records[0].GoMaxProcs)
	}
	data, ok := records[0].Data.(map[string]any)
	if !ok {
		t.Fatalf("data is %T, want an object", records[0].Data)
	}
	for _, section := range []string{"cpus", "gomaxprocs", "lanes", "allocs", "serve"} {
		if _, ok := data[section]; !ok {
			t.Errorf("data missing section %q", section)
		}
	}
	allocs, ok := data["allocs"].([]any)
	if !ok || len(allocs) == 0 {
		t.Fatalf("allocs section = %v, want non-empty list", data["allocs"])
	}
	for _, a := range allocs {
		pt := a.(map[string]any)
		if n := pt["allocs_per_run"].(float64); n != 0 {
			t.Errorf("kernel %v: allocs_per_run = %v, want 0", pt["kernel"], n)
		}
	}
}

// TestParFlagRequiresParallelExperiment checks the flag-combination
// validation: -par without the parallel experiment fails up front.
func TestParFlagRequiresParallelExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-exp", "engines", "-par", "2"}, &stdout, &stderr); code == 0 {
		t.Fatal("exit 0, want failure")
	}
	if !strings.Contains(stderr.String(), "parallel") {
		t.Errorf("diagnostic %q does not name the parallel experiment", stderr.String())
	}
	// With the parallel experiment in the list the combination is legal.
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-exp", "parallel", "-scale", "0.05", "-par", "1,2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
}

// TestSmokeBadFlags checks the error paths exit nonzero without panicking.
func TestSmokeBadFlags(t *testing.T) {
	cases := [][]string{
		{"-exp", "nope"},
		{"-engine", "warp"},
		{"-exp", "parallel", "-par", "0"},
		{"-exp", "parallel", "-par", "x"},
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

func TestParseLanes(t *testing.T) {
	lanes, err := parseLanes("1, 2,8")
	if err != nil || len(lanes) != 3 || lanes[0] != 1 || lanes[1] != 2 || lanes[2] != 8 {
		t.Errorf("parseLanes = %v, %v", lanes, err)
	}
	if lanes, err := parseLanes(""); err != nil || lanes != nil {
		t.Errorf("empty spec = %v, %v", lanes, err)
	}
}

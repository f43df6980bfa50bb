package core

import (
	"slices"
	"strings"
	"testing"

	"sam/internal/token"
)

// runParJoin forks src across lanes at the given granularity and joins it
// back, returning the joined stream. A deep join (level >= 0) is rotated by
// drivers — per-lane copies of the element-wise fork of outer, the outermost
// coordinate stream src hangs under — the way custard/par.go wires it.
func runParJoin(outer, src token.Stream, lanes, level int) (token.Stream, error) {
	n := &Net{}
	fork := func(s token.Stream, level int) []*Queue {
		in := n.NewQueue("in")
		in.Preload(s)
		qs := make([]*Queue, lanes)
		outs := make([]*Out, lanes)
		for i := range qs {
			qs[i] = n.NewQueue("lane")
			outs[i] = NewOut(qs[i])
		}
		n.Add(NewParallelizer("par", level, in, outs))
		return qs
	}
	var drv []*Queue
	if level >= 0 {
		drv = fork(outer, -1)
	}
	out := n.NewQueue("out")
	ser, err := NewSerializer("ser", level, fork(src, level), nil, drv, NewOut(out), nil)
	if err != nil {
		return nil, err
	}
	n.Add(ser)
	if _, err := n.Run(100000); err != nil {
		return nil, err
	}
	return out.Drain(), nil
}

// TestParallelizerElementRoundTrip checks element-granularity fork/join: the
// mode runPar uses to split the outermost loop level.
func TestParallelizerElementRoundTrip(t *testing.T) {
	for _, src := range []string{
		"1 2 3 4 5 S0 D",
		"7 S0 D",
		"S0 D",
		"D",
		"1 2 S0 D",
	} {
		for lanes := 2; lanes <= 5; lanes++ {
			got, err := runParJoin(nil, token.MustParse(src), lanes, -1)
			if err != nil {
				t.Fatalf("lanes=%d src=%q: %v", lanes, src, err)
			}
			if !slices.Equal(got, token.MustParse(src)) {
				t.Errorf("lanes=%d src=%q: joined %v", lanes, src, got)
			}
		}
	}
}

// joinLanes runs one Serializer over preloaded lane streams and returns what
// it emitted on the coordinate and (with vals) value outputs.
func joinLanes(t *testing.T, level int, ins, vals, drv []string) (token.Stream, token.Stream) {
	t.Helper()
	n := &Net{}
	load := func(srcs []string) []*Queue {
		if srcs == nil {
			return nil
		}
		qs := make([]*Queue, len(srcs))
		for i, s := range srcs {
			qs[i] = n.NewQueue("lane")
			qs[i].Preload(token.MustParse(s))
		}
		return qs
	}
	outCrd, outVal := n.NewQueue("outCrd"), n.NewQueue("outVal")
	var valOut *Out
	if vals != nil {
		valOut = NewOut(outVal)
	}
	ser, err := NewSerializer("ser", level, load(ins), load(vals), load(drv), NewOut(outCrd), valOut)
	if err != nil {
		t.Fatal(err)
	}
	n.Add(ser)
	mustRun(t, n)
	return outCrd.Drain(), outVal.Drain()
}

// TestSerializerSynthesizesSeparators drives lane streams shaped like
// per-lane pipeline outputs (the closing stop subsumes the last chunk
// separator) and checks the joiner re-materializes the separators.
func TestSerializerSynthesizesSeparators(t *testing.T) {
	// Three i-chunks round-robined over two lanes: lane 0 held i0 and i2,
	// lane 1 held i1. Each lane closes with the elevated stop of its own
	// (shorter) stream.
	got, _ := joinLanes(t, 0,
		[]string{"10 11 S0 30 S1 D", "20 S1 D"}, nil,
		[]string{"0 2 S0 D", "1 S0 D"})
	checkStream(t, "joined", got, "10 11 S0 20 S0 30 S1 D")
}

// TestSerializerEmptyLane checks that a lane that received no chunks at all
// (more lanes than elements) is absorbed by the closing stop.
func TestSerializerEmptyLane(t *testing.T) {
	got, _ := joinLanes(t, 0,
		[]string{"10 S1 D", "20 S1 D", "S1 D"}, nil,
		[]string{"0 S0 D", "1 S0 D", "S0 D"})
	checkStream(t, "joined", got, "10 S0 20 S1 D")
}

// TestSerializerEmptyLastChunk is the case only the drivers can tell from
// TestSerializerEmptyLane: lane 0 owes a second, empty chunk (i2), so its
// closing stop stands for that chunk too and the join keeps its place.
func TestSerializerEmptyLastChunk(t *testing.T) {
	got, _ := joinLanes(t, 0,
		[]string{"10 S0 S1 D", "20 S1 D"}, nil,
		[]string{"0 2 S0 D", "1 S0 D"})
	checkStream(t, "joined", got, "10 S0 20 S0 S1 D")
}

// TestSerializerRejectsWrongDrivers checks the constructor takes drivers
// exactly when the join is below the fork's depth: a deep join without them
// is an error naming the block, not a heuristic.
func TestSerializerRejectsWrongDrivers(t *testing.T) {
	n := &Net{}
	two := []*Queue{n.NewQueue("a"), n.NewQueue("b")}
	for _, c := range []struct {
		level int
		drv   []*Queue
	}{{0, nil}, {1, two[:1]}, {-1, two}} {
		_, err := NewSerializer("Serializer j", c.level, two, nil, c.drv, NewOut(), nil)
		if err == nil || !strings.Contains(err.Error(), "Serializer j") {
			t.Errorf("level %d with %d drivers: err = %v, want one naming the block", c.level, len(c.drv), err)
		}
	}
}

// TestPairSerializerDiscardsLaneArtifacts checks a join with a value stream
// riding along forwards the orphan zero an empty lane's scalar reducer
// emits, keeping the coordinate rotation intact.
func TestPairSerializerDiscardsLaneArtifacts(t *testing.T) {
	// Lanes 0 and 1 carry one real (coordinate, value) element each; lane 2
	// received no elements, so its reducer emitted one explicit zero with no
	// coordinate.
	crd, val := joinLanes(t, -1,
		[]string{"3 S0 D", "8 S0 D", "S0 D"},
		[]string{"1.5 S0 D", "2.5 S0 D", "0.0 S0 D"}, nil)
	checkStream(t, "crd", crd, "3 8 S0 D")
	// The orphan zero passes through on the value stream (a downstream
	// dropper removes it, as in the sequential pipeline).
	checkStream(t, "val", val, "1.5 2.5 0.0 S0 D")
}

// TestPairSerializerFiberMode joins two-lane (crd, val) pairs at fiber
// granularity, lane 1 running out of chunks first, as the SpM*SpM join
// does: driven by the lanes' forks of the i stream.
func TestPairSerializerFiberMode(t *testing.T) {
	crd, val := joinLanes(t, 0,
		[]string{"1 2 S0 4 S1 D", "3 S1 D"},
		[]string{"1.0 2.0 S0 4.0 S1 D", "3.0 S1 D"},
		[]string{"0 2 S0 D", "1 S0 D"})
	checkStream(t, "crd", crd, "1 2 S0 3 S0 4 S1 D")
	checkStream(t, "val", val, "1.0 2.0 S0 3.0 S0 4.0 S1 D")
}

package comp

import (
	"sam/internal/core"
	"sam/internal/graph"
	"sam/internal/token"
)

// This file lowers the lane-parallelism blocks of paper Section 4.4: the
// parallelizer fork, the round-robin (element- or driver-rotated) join, and
// the cross-lane reduction combiner. The merged-loop state machines mirror
// internal/core's tick-level blocks token for token; the combiner
// reuses the shared pure codec core.MergeLaneStreams directly, since the
// lane streams are already materialized here.

// stepParallelize forks a stream across lanes: level < 0 advances the lane
// after every data token, level >= 0 after each stop of exactly that level;
// higher stops and done replicate to every lane.
func stepParallelize(si *StepIR) step {
	in := si.Ins[0]
	outs := si.Outs
	level := si.Level
	return func(x *exec) {
		cin := x.cur(in)
		lanes := len(outs)
		lane := 0
		for {
			t := cin.next()
			switch t.Kind {
			case token.Val, token.Empty:
				x.push(outs[lane], t)
				if level < 0 {
					lane = (lane + 1) % lanes
				}
			case token.Stop:
				switch {
				case level >= 0 && t.StopLevel() < level:
					x.push(outs[lane], t)
				case level >= 0 && t.StopLevel() == level:
					x.push(outs[lane], t)
					lane = (lane + 1) % lanes
				default:
					for _, o := range outs {
						x.push(o, t)
					}
					lane = 0
				}
			case token.Done:
				for _, o := range outs {
					x.push(o, t)
				}
				return
			}
		}
	}
}

// stepSerialize joins lane streams round-robin, for both join kinds: a
// SerializePair is the same join with one value stream per lane riding along
// on the coordinate stream that keys the rotation. Input slots follow
// graph.InPorts order — the lane streams, the value streams (pair only), the
// drivers (Level >= 0 only) — and StepIR.validate holds their count to it, so
// a deep join cannot get here without its drivers.
func stepSerialize(si *StepIR) step {
	w := si.Ways
	ins, rest := si.Ins[:w], si.Ins[w:]
	var vals []int
	out, outVal := si.Outs[0], -1
	if si.Kind == graph.SerializePair {
		vals, rest = rest[:w], rest[w:]
		outVal = si.Outs[1]
	}
	drv := rest
	level, name := si.Level, si.Label
	return func(x *exec) {
		j := laneJoin{x: x, name: name, level: level, h: x.curs(ins), hv: x.curs(vals), out: out, outVal: outVal}
		if level < 0 {
			j.elements()
		} else {
			j.chunks(x.curs(drv))
		}
	}
}

// laneJoin is one run of a join: the lane cursors, the value cursors riding
// along (none for a plain Serialize, whose outVal of -1 discards), and the
// output slots. It mirrors core.Serializer token for token.
type laneJoin struct {
	x           *exec
	name        string
	level       int
	h, hv       []*cursor
	out, outVal int
}

func isData(t token.Tok) bool { return t.IsVal() || t.IsEmpty() }

// forward moves lane l's head to the output, and the value head with it: a
// data token for a data token, the same stop for a stop.
func (j *laneJoin) forward(l int) {
	t := j.h[l].next()
	j.x.push(j.out, t)
	if len(j.hv) == 0 {
		return
	}
	tv := j.hv[l].next()
	if !aligned(t, tv) {
		fail("%s: value stream misaligned: crd %v vs val %v", j.name, t, tv)
	}
	j.x.push(j.outVal, tv)
}

// orphans forwards the zero values the given value cursors hold while their
// coordinate lanes hold a stop or done: what an empty lane's scalar reducer
// emitted with no coordinate attached.
func (j *laneJoin) orphans(hv []*cursor) {
	for _, c := range hv {
		for v := c.peek(); isData(v); v = c.peek() {
			if v.IsVal() && v.V != 0 {
				fail("%s: nonzero orphan value %v", j.name, v)
			}
			j.x.push(j.outVal, c.next())
		}
	}
}

// closeAll consumes the control token t from every lane and emits it once.
func (j *laneJoin) closeAll(t token.Tok) {
	for _, hs := range [2][]*cursor{j.h, j.hv} {
		for l, c := range hs {
			if xt := c.next(); xt != t {
				fail("%s: lanes misaligned at %v: lane %d holds %v", j.name, t, l, xt)
			}
		}
	}
	j.x.push(j.out, t)
	j.x.push(j.outVal, t)
}

// elements is the element rotation (Level < 0): one data token per turn, and
// the lanes, exhausting in strict rotation, close together.
func (j *laneJoin) elements() {
	lane := 0
	for {
		t := j.h[lane].peek()
		if isData(t) {
			j.forward(lane)
			lane = (lane + 1) % len(j.h)
			continue
		}
		j.orphans(j.hv)
		j.closeAll(t)
		if t.IsDone() {
			return
		}
		lane = 0
	}
}

// chunks is the driver-rotated join (Level >= 0): hd[l], lane l's fork of
// the outermost coordinate stream, counts the chunks lane l owes.
func (j *laneJoin) chunks(hd []*cursor) {
	noMore := func() bool {
		for _, c := range hd {
			if isData(c.peek()) {
				return false
			}
		}
		return true
	}
	lanes := len(j.h)
	lane := 0
	for {
		d := hd[lane].peek()
		switch {
		case isData(d):
			hd[lane].next()
		chunk:
			for {
				t := j.h[lane].peek()
				switch {
				case isData(t):
					j.forward(lane)
				case t.IsStop():
					if len(j.hv) > 0 {
						j.orphans(j.hv[lane : lane+1])
					}
					if t.StopLevel() > j.level {
						// The lane's closing stop subsumed this separator.
						if !noMore() {
							j.x.push(j.out, token.S(j.level))
							j.x.push(j.outVal, token.S(j.level))
						}
						break chunk
					}
					j.forward(lane)
					if t.StopLevel() == j.level {
						break chunk
					}
				default:
					fail("%s: lane stream ended mid-chunk", j.name)
				}
			}
			lane = (lane + 1) % lanes
		case d.IsStop():
			if !noMore() {
				lane = (lane + 1) % lanes
				continue
			}
			for _, c := range hd {
				if xt := c.next(); xt != d {
					fail("%s: drivers disagree on closing stop: %v vs %v", j.name, d, xt)
				}
			}
			stop := j.h[0].peek()
			if !stop.IsStop() || stop.StopLevel() <= j.level {
				fail("%s: expected closing stop, lane holds %v", j.name, stop)
			}
			j.orphans(j.hv)
			j.closeAll(stop)
			for _, c := range hd {
				if xt := c.next(); !xt.IsDone() {
					fail("%s: driver misaligned at done: %v", j.name, xt)
				}
			}
			j.closeAll(token.D())
			return
		default:
			fail("%s: driver stream ended before its closing stop", j.name)
		}
	}
}

// stepLaneReduce merges two lanes' output stream bundles (m coordinate
// streams plus values per lane) by adding values at matching coordinate
// points, via the shared pure codec. Input slots follow LaneReduce port
// order: side 0's m coordinate streams then its values, then side 1's.
func stepLaneReduce(si *StepIR) step {
	m := si.RedN
	crdA, valA := si.Ins[:m], si.Ins[m]
	crdB, valB := si.Ins[m+1:2*m+1], si.Ins[2*m+1]
	outCrd := si.Outs[:m]
	outVal := si.Outs[m]
	name := si.Label
	return func(x *exec) {
		collect := func(slots []int) []token.Stream {
			out := make([]token.Stream, len(slots))
			for i, s := range slots {
				out[i] = x.streams[s]
			}
			return out
		}
		merged, err := core.MergeLaneStreams(m, collect(crdA), x.streams[valA], collect(crdB), x.streams[valB])
		if err != nil {
			fail("%s: %v", name, err)
		}
		for q := 0; q < m; q++ {
			for _, t := range merged[q] {
				x.push(outCrd[q], t)
			}
		}
		for _, t := range merged[m] {
			x.push(outVal, t)
		}
	}
}

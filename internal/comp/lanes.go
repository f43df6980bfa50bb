package comp

import "sam/internal/graph"

// This file builds the lane-parallel execution plan of a compiled program.
// The lowered closures themselves are execution-strategy agnostic — each
// reads fully materialized input streams and appends to its own output
// slots — so parallelism is purely a scheduling question: which steps can
// run on per-lane goroutines between the parallelizer fork and the
// serializer/lane-reduce join. buildPlan answers it with a dataflow tagging
// pass over the step list; runLanes (exec.go) executes the result. The plan
// is derived state: Materialize recomputes it from the IR on every load, so
// a serialized artifact can never carry an unsound plan.

// Region tags. Lane indices are >= 0.
const (
	tagPre  = -1 // runs before the fork barrier, on the calling goroutine
	tagPost = -2 // runs after the barrier (joins, writers' consumers)
)

// stepInfo pairs one executed step's IR record (the dataflow: kind, ways,
// and the stream slots it reads and writes; its label names its trace span)
// with its bound closure.
type stepInfo struct {
	si   *StepIR
	step step
}

// execPlan partitions the program's steps into a sequential prefix, one
// closure chain per lane, and a sequential suffix. Index order is preserved
// within each partition, so producers still precede consumers.
type execPlan struct {
	ways  int
	pre   []stepInfo
	lanes [][]stepInfo
	post  []stepInfo
}

// buildPlan derives the lane plan from the lowered steps' dataflow, or
// returns nil when the graph should run sequentially (no Parallelize
// blocks, disagreeing lane widths, nested forks, or no step ended up on a
// lane).
//
// Forward pass: every slot starts in the pre region. A Parallelize step
// (which must read only pre slots — a fork fed by another fork's lane
// degrades the whole program to sequential) tags its i-th output slot with
// lane i. Any other step joins the region of its inputs: all pre stays pre,
// pre plus exactly one lane joins that lane, and mixing lanes (or reading a
// post slot) makes it post — that is where serializers and lane reducers
// land. Backward pass: a pre step whose outputs feed exactly one lane (and
// no writer slot, which assembly reads after the barrier) is pulled into
// that lane, so per-lane scanner/array chains hanging off shared pre
// streams run inside the lane goroutine; processing steps in reverse order
// lets whole chains cascade lane-ward in one pass.
//
// Safety: a lane step reads only pre slots (fully written before the fork)
// and its own lane's slots; lanes write disjoint slots of the shared stream
// table, so distinct goroutines never touch the same element and the fork
// barrier provides the happens-before edges.
func buildPlan(nSlot int, infos []stepInfo, crdWr map[int]writerRec, valsWr *writerRec) *execPlan {
	ways := 0
	for _, in := range infos {
		if in.si.Kind == graph.Parallelize {
			if ways == 0 {
				ways = in.si.Ways
			} else if ways != in.si.Ways {
				return nil
			}
		}
	}
	if ways < 2 {
		return nil
	}

	slotTag := make([]int, nSlot)
	for i := range slotTag {
		slotTag[i] = tagPre
	}
	stepTag := make([]int, len(infos))
	for j, in := range infos {
		if in.si.Kind == graph.Parallelize {
			for _, s := range in.si.Ins {
				if slotTag[s] != tagPre {
					return nil
				}
			}
			if len(in.si.Outs) != ways {
				return nil
			}
			stepTag[j] = tagPre
			for lane, s := range in.si.Outs {
				if s >= 0 {
					slotTag[s] = lane
				}
			}
			continue
		}
		t := tagPre
		for _, s := range in.si.Ins {
			st := slotTag[s]
			if st == tagPre || st == t {
				continue
			}
			if t == tagPre && st != tagPost {
				t = st
				continue
			}
			t = tagPost
			break
		}
		stepTag[j] = t
		for _, s := range in.si.Outs {
			if s >= 0 {
				slotTag[s] = t
			}
		}
	}

	// Backward refinement.
	cons := make([][]int, nSlot)
	for j, in := range infos {
		for _, s := range in.si.Ins {
			cons[s] = append(cons[s], j)
		}
	}
	writerSlot := make([]bool, nSlot)
	for _, w := range crdWr {
		writerSlot[w.slot] = true
	}
	writerSlot[valsWr.slot] = true
	for j := len(infos) - 1; j >= 0; j-- {
		if stepTag[j] != tagPre || infos[j].si.Kind == graph.Parallelize {
			continue
		}
		lane := tagPre
		ok, any := true, false
		for _, s := range infos[j].si.Outs {
			if s < 0 {
				continue
			}
			if writerSlot[s] {
				ok = false
				break
			}
			for _, cj := range cons[s] {
				any = true
				ct := stepTag[cj]
				if ct < 0 || (lane >= 0 && lane != ct) {
					ok = false
					break
				}
				lane = ct
			}
			if !ok {
				break
			}
		}
		if ok && any && lane >= 0 {
			stepTag[j] = lane
			for _, s := range infos[j].si.Outs {
				if s >= 0 {
					slotTag[s] = lane
				}
			}
		}
	}

	plan := &execPlan{ways: ways, lanes: make([][]stepInfo, ways)}
	onLane := 0
	for j, in := range infos {
		switch t := stepTag[j]; t {
		case tagPre:
			plan.pre = append(plan.pre, in)
		case tagPost:
			plan.post = append(plan.post, in)
		default:
			plan.lanes[t] = append(plan.lanes[t], in)
			onLane++
		}
	}
	if onLane == 0 {
		return nil
	}
	return plan
}

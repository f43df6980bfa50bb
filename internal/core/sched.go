package core

import "math/bits"

// scheduler is the event-driven ready-set engine behind Net.Run. Instead of
// ticking every block every cycle (O(blocks × cycles), the dominant cost of
// the naive loop when most of a pipeline is starved or backpressured), it
// maintains a worklist of blocks that can possibly make progress and ticks
// only those.
//
// A block enters the ready set for cycle t+1 when
//
//   - it made progress at cycle t (it may hold more internal work, e.g. a
//     scanner mid-fiber or a reducer flushing), or
//   - one of its input queues flipped staged tokens visible at the t→t+1
//     boundary (Queue.EndCycle), or
//   - a pop freed space in one of its bounded output queues. Pops take
//     effect immediately, so if the pop happens at cycle t before the
//     producer's turn in block order, the producer is woken within cycle t
//     itself — exactly when the naive loop would have ticked it with the
//     space already visible.
//
// Ticks within a cycle run in ascending block-index order, matching the
// naive loop, so simulated cycle counts, outputs, and stream statistics are
// bit-identical between the two engines (Tick is required to be a no-op
// when it reports no progress and no event occurred; see Block).
type scheduler struct {
	net    *Net
	blocks []Block

	// cur and next are ready-set bitsets for the current and the following
	// cycle. Bits of cur are cleared as blocks are ticked; wakes that land
	// at or before the block currently ticking go to next instead.
	cur, next []uint64
	curIdx    int

	// flips lists the wired-queue indices that staged tokens this cycle
	// and therefore need an EndCycle flip (and a consumer wake) at the
	// cycle boundary. Indices, not pointers, keep the hot Push path free
	// of GC write barriers.
	flips []int32

	// wired lists every queue carrying scheduler hooks, for teardown.
	wired []*Queue
}

// newScheduler wires a scheduler over the net.
func newScheduler(n *Net) *scheduler {
	blocks := n.Blocks
	words := (len(blocks) + 63) / 64
	s := &scheduler{
		net:    n,
		blocks: blocks,
		cur:    make([]uint64, words),
		next:   make([]uint64, words),
		curIdx: -1,
	}
	// Resolve each registered queue's consumer and producer block. Only
	// queues registered with the net get hooks: an unregistered queue never
	// receives an EndCycle flip from the naive loop either, so leaving it
	// hookless preserves engine equivalence even for malformed nets.
	cons := map[*Queue]int{}
	prod := map[*Queue]int{}
	for i, p := range blocks {
		for _, q := range p.InQueues() {
			cons[q] = i + 1
		}
		for _, o := range p.OutPorts() {
			if o == nil {
				continue
			}
			// Resolve backpressure once per run: a port none of whose
			// destinations is bounded can always push (see Out.CanPush).
			o.free = true
			for _, q := range o.Queues() {
				prod[q] = i + 1
				if q.Cap > 0 {
					o.free = false
				}
			}
		}
	}
	for i, q := range n.Queues {
		q.sched = s
		q.consumer = cons[q]
		q.producer = prod[q]
		q.wired = int32(i)
		q.flipPending = false
		s.wired = append(s.wired, q)
	}
	s.flips = make([]int32, 0, len(s.wired))
	return s
}

// stage records that a queue received its first staged token this cycle.
func (s *scheduler) stage(wired int32) { s.flips = append(s.flips, wired) }

// wake schedules block i: within the current cycle if its turn has not come
// yet, otherwise for the next cycle.
func (s *scheduler) wake(i int) {
	if i > s.curIdx {
		s.cur[i>>6] |= 1 << (uint(i) & 63)
	} else {
		s.next[i>>6] |= 1 << (uint(i) & 63)
	}
}

// wakeNext schedules block i for the next cycle.
func (s *scheduler) wakeNext(i int) { s.next[i>>6] |= 1 << (uint(i) & 63) }

// finish tears down the scheduler's hooks on queues and ports and ends the
// run on every queue (idle statistics, storage release; see Queue.endRun).
func (s *scheduler) finish(cycles int) {
	for _, q := range s.wired {
		q.sched = nil
		q.flipPending = false
		q.endRun(cycles)
	}
	for _, b := range s.blocks {
		for _, o := range b.OutPorts() {
			if o != nil {
				o.free = false
			}
		}
	}
}

// run executes the net to completion. See Net.Run for the contract.
func (s *scheduler) run(limit int) (int, error) {
	n := s.net
	nb := len(s.blocks)
	// done counts the leading blocks known to have finished. Done never
	// reverts, so advancing it at each cycle's end finds the cycle the last
	// block finished in at one interface call per cycle, not per tick.
	done := 0
	// Every block is ready at cycle 0: sources begin producing, preloaded
	// queues are already visible, and blocks with nothing to do simply
	// report no progress and leave the ready set.
	for i := range s.cur {
		s.cur[i] = ^uint64(0)
	}
	if spare := words64(nb); spare > 0 {
		s.cur[len(s.cur)-1] = ^uint64(0) >> uint(64-spare)
	}
	cycles := 0
	for {
		if cycles >= limit {
			s.finish(cycles)
			return cycles, errLimit(limit, n)
		}
		progress := false
		for w := 0; w < len(s.cur); w++ {
			for s.cur[w] != 0 {
				bit := bits.TrailingZeros64(s.cur[w])
				s.cur[w] &^= 1 << uint(bit)
				i := w<<6 + bit
				s.curIdx = i
				b := s.blocks[i]
				if b.Tick() {
					progress = true
					s.wakeNext(i)
				} else if err := b.Err(); err != nil {
					// fail always reports no progress, so the error check
					// is needed only on failed ticks.
					s.finish(cycles)
					return cycles, err
				}
			}
		}
		s.curIdx = -1
		staged := len(s.flips) > 0
		for _, w := range s.flips {
			q := s.wired[w]
			q.flipPending = false
			q.EndCycle()
			if q.consumer > 0 {
				s.wakeNext(q.consumer - 1)
			}
		}
		s.flips = s.flips[:0]
		cycles++
		for done < nb && s.blocks[done].Done() {
			done++
		}
		if done == nb {
			s.finish(cycles)
			return cycles, nil
		}
		if !progress && !staged {
			s.finish(cycles)
			return cycles, errDeadlock(cycles, n)
		}
		s.cur, s.next = s.next, s.cur
	}
}

// words64 returns n modulo 64 (the occupied bits of the last bitset word).
func words64(n int) int { return n & 63 }

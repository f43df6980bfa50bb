package serve

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrQueueFull rejects a submission when the admission queue is at
// capacity; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining rejects submissions after shutdown began; mapped to 503.
var ErrDraining = errors.New("serve: server draining")

// queue is the admission-controlled job queue: a bounded channel in front
// of a fixed worker pool; each worker takes one job at a time and runs it on
// its own goroutine. Admission never blocks: a full queue rejects with
// ErrQueueFull, which is the backpressure signal.
type queue struct {
	mu       sync.RWMutex // guards draining against submits racing close
	ch       chan *job
	draining bool
	wg       sync.WaitGroup
	run      func(*job)
	// inflight counts jobs a worker has picked up but not finished running.
	// len(ch) alone undercounts the queue's admitted-but-unfinished load —
	// the sam_queue_depth gauge used to go to zero the moment workers
	// drained the channel, with every job still running.
	inflight atomic.Int64
}

func newQueue(workers, depth int, run func(*job)) *queue {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 64
	}
	q := &queue{ch: make(chan *job, depth), run: run}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// submit admits a job or rejects it immediately.
func (q *queue) submit(j *job) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.draining {
		return ErrDraining
	}
	select {
	case q.ch <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// depth is the number of admitted jobs still waiting or running: queued in
// the channel plus picked up by a worker and not yet finished. This is the
// load figure the sam_queue_depth gauge and /v1/stats report.
func (q *queue) depth() int { return len(q.ch) + int(q.inflight.Load()) }

// running is the in-flight component of depth: jobs a worker is executing.
func (q *queue) running() int { return int(q.inflight.Load()) }

// drain stops admission and waits for every queued and running job to
// finish: the graceful-shutdown path. Safe to call more than once.
func (q *queue) drain() {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.ch)
	}
	q.mu.Unlock()
	q.wg.Wait()
}

// worker runs queued jobs one at a time until the queue is drained.
func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		q.inflight.Add(1)
		q.run(j)
		q.inflight.Add(-1)
	}
}

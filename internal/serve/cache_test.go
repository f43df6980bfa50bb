package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/sim"
)

func testProgram(t *testing.T, expr string) *sim.Program {
	t.Helper()
	g, err := custard.Compile(lang.MustParse(expr), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// building returns a resolve build function that yields p as a fresh compile.
func building(p *sim.Program) func() (*sim.Program, string, error) {
	return func() (*sim.Program, string, error) { return p, "miss", nil }
}

// TestCacheLRU checks hit/miss accounting and least-recently-used eviction.
func TestCacheLRU(t *testing.T) {
	c := newProgramCache(2, newMetrics())
	pa := testProgram(t, "x(i) = a(i) * b(i)")
	pb := testProgram(t, "x(i) = a(i) + b(i)")
	pc := testProgram(t, "x(i) = a(i) - b(i)")
	source := func(key string, p *sim.Program) string {
		t.Helper()
		got, src, err := c.resolve(key, building(p))
		if err != nil || got != p {
			t.Fatalf("resolve %q = %v, %v; want the program it was given or holds", key, got, err)
		}
		return src
	}

	if src := source("a", pa); src != "miss" {
		t.Fatalf("empty cache resolved a as %q", src)
	}
	source("b", pb)
	if src := source("a", pa); src != "hit" {
		t.Fatalf("cached key a resolved as %q", src)
	}
	// a is now most recent; inserting c must evict b.
	source("c", pc)
	if src := source("a", pa); src != "hit" {
		t.Fatal("a was evicted though it was most recently used")
	}
	if src := source("c", pc); src != "hit" {
		t.Fatal("c missing after insert")
	}
	if src := source("b", pb); src != "miss" {
		t.Fatal("b survived eviction though it was least recently used")
	}
	hits, misses, evictions, size := c.stats()
	if hits != 3 || misses != 4 || evictions != 2 || size != 2 {
		t.Fatalf("stats = hits %d misses %d evictions %d size %d", hits, misses, evictions, size)
	}
}

// TestCachePutExistingKey checks overwriting a key (the benign
// concurrent-miss race) neither grows the cache nor evicts.
func TestCachePutExistingKey(t *testing.T) {
	c := newProgramCache(2, newMetrics())
	pa := testProgram(t, "x(i) = a(i) * b(i)")
	pb := testProgram(t, "x(i) = a(i) + b(i)")
	c.put("k", pa)
	c.put("k", pb)
	got, src, err := c.resolve("k", building(pa))
	if err != nil || src != "hit" || got != pb {
		t.Fatal("second put did not replace the entry")
	}
	if _, _, evictions, size := c.stats(); size != 1 || evictions != 0 {
		t.Fatalf("size %d evictions %d after double put", size, evictions)
	}
}

// TestCacheConcurrent hammers the cache from many goroutines under -race.
func TestCacheConcurrent(t *testing.T) {
	c := newProgramCache(4, newMetrics())
	progs := make([]*sim.Program, 8)
	ops := []string{"*", "+", "-"}
	for i := range progs {
		progs[i] = testProgram(t, fmt.Sprintf("x(i) = a(i) %s b%d(i)", ops[i%len(ops)], i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % len(progs)
				if got, _, err := c.resolve(fmt.Sprintf("k%d", k), building(progs[k])); err != nil || got != progs[k] {
					t.Errorf("resolve k%d = %v, %v", k, got, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, _, _, size := c.stats(); size > 4 {
		t.Fatalf("cache grew past capacity: %d", size)
	}
}

// TestCacheSingleflight pins the thundering-herd fix: N concurrent misses
// on one key must run the build exactly once, with every other caller
// waiting for — and sharing — that result as a hit.
func TestCacheSingleflight(t *testing.T) {
	c := newProgramCache(8, newMetrics())
	prog := testProgram(t, "x(i) = a(i) * b(i)")
	var builds atomic.Int64
	build := func() (*sim.Program, string, error) {
		builds.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the flight open for the herd
		return prog, "miss", nil
	}

	const callers = 16
	start := make(chan struct{})
	sources := make(chan string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, src, err := c.resolve("k", build)
			if err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
			if got != prog {
				t.Error("resolve returned a different program")
			}
			sources <- src
		}()
	}
	close(start)
	wg.Wait()
	close(sources)

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for %d concurrent callers, want 1", n, callers)
	}
	var missN, hitN int
	for src := range sources {
		switch src {
		case "miss":
			missN++
		case "hit":
			hitN++
		default:
			t.Fatalf("unexpected source %q", src)
		}
	}
	if missN != 1 || hitN != callers-1 {
		t.Fatalf("sources: %d miss %d hit, want 1 and %d", missN, hitN, callers-1)
	}
	hits, misses, _, size := c.stats()
	if hits != int64(callers-1) || misses != 1 || size != 1 {
		t.Fatalf("stats = hits %d misses %d size %d", hits, misses, size)
	}
}

// TestCacheSingleflightError checks a failed build propagates to every
// waiter and caches nothing, so the next resolve rebuilds.
func TestCacheSingleflightError(t *testing.T) {
	c := newProgramCache(8, newMetrics())
	boom := errors.New("compile exploded")
	var builds atomic.Int64
	failing := func() (*sim.Program, string, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond)
		return nil, "", boom
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.resolve("k", failing)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the build error", err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failing build ran %d times, want 1", n)
	}

	// Nothing cached: a later resolve builds again and can succeed.
	prog := testProgram(t, "x(i) = a(i) * b(i)")
	got, src, err := c.resolve("k", func() (*sim.Program, string, error) {
		return prog, "miss", nil
	})
	if err != nil || got != prog || src != "miss" {
		t.Fatalf("post-error resolve = %v, %q, %v", got, src, err)
	}
}

// TestQueueDepthCountsRunning pins the sam_queue_depth fix: a job a worker
// has picked up but not finished still counts toward depth. The old
// len(ch)-only depth dropped to zero the instant the channel drained.
func TestQueueDepthCountsRunning(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	q := newQueue(1, 4, func(*job) {
		started <- struct{}{}
		<-release
	})
	for i := 0; i < 3; i++ {
		if err := q.submit(&job{id: fmt.Sprintf("d%d", i), done: make(chan struct{})}); err != nil {
			t.Fatal(err)
		}
	}
	<-started // worker holds job 0; jobs 1 and 2 sit in the channel
	if got := q.depth(); got != 3 {
		t.Fatalf("depth = %d with 1 running + 2 queued, want 3", got)
	}
	if q.running() != 1 || q.depth()-q.running() != 2 {
		t.Fatalf("running %d queued %d, want 1 and 2", q.running(), q.depth()-q.running())
	}
	release <- struct{}{}
	<-started // job 1 running, job 2 queued
	if got := q.depth(); got != 2 {
		t.Fatalf("depth = %d after one completion, want 2", got)
	}
	release <- struct{}{}
	<-started
	release <- struct{}{}
	q.drain()
	if got := q.depth(); got != 0 {
		t.Fatalf("depth = %d after drain, want 0", got)
	}
}

// TestQueueBackpressure drives the queue with a blocked worker and checks
// admission control: fills to capacity, rejects with ErrQueueFull, then
// completes everything on release and rejects with ErrDraining after drain.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	var ran []string
	var mu sync.Mutex
	q := newQueue(1, 2, func(j *job) {
		<-release
		mu.Lock()
		ran = append(ran, j.id)
		mu.Unlock()
	})
	mk := func(id string) *job { return &job{id: id, done: make(chan struct{})} }

	// First job occupies the worker (it may be picked up immediately), the
	// next two fill the depth-2 channel; the fourth must be rejected. Submit
	// until two rejections to be robust to pickup timing.
	var accepted, rejected int
	for i := 0; accepted < 3 && i < 10; i++ {
		if err := q.submit(mk(fmt.Sprintf("a%d", i))); err == nil {
			accepted++
		} else if err != ErrQueueFull {
			t.Fatalf("unexpected error %v", err)
		}
	}
	for rejected < 1 {
		err := q.submit(mk("overflow"))
		if err == nil {
			// The worker dequeued one meanwhile; keep filling.
			accepted++
			continue
		}
		if err != ErrQueueFull {
			t.Fatalf("unexpected error %v", err)
		}
		rejected++
	}
	close(release)
	q.drain()
	if err := q.submit(mk("late")); err != ErrDraining {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	mu.Lock()
	n := len(ran)
	mu.Unlock()
	if n != accepted {
		t.Fatalf("%d jobs ran after drain, want every accepted job (%d)", n, accepted)
	}
}

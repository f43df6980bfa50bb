package serve

import (
	"container/list"
	"sync"

	"sam/internal/obs"
	"sam/internal/sim"
)

// programCache is the compiled-program LRU: canonical request key (see
// lang.CanonicalKey) to *sim.Program. A hit still pays the parse — the key is
// made from the parsed statement — and skips compilation and program
// construction, the dominant per-request setup cost. Safe for concurrent use.
// Its counters are series of the server's metrics registry, resolved once
// here, so /v1/stats and /metrics read the same numbers.
type programCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *cacheEntry
	items map[string]*list.Element
	// flights dedups concurrent misses per key (see resolve): the first
	// miss builds, everyone else waits on its result.
	flights map[string]*flight

	// hits, fromDisk and compiled are sam_cache_resolutions_total's tiers
	// mem, disk and compile: every resolve counts into exactly one, a failed
	// build as the compile it attempted. A miss is either of the last two.
	hits, fromDisk, compiled, evictions *obs.Counter
}

type cacheEntry struct {
	key  string
	prog *sim.Program
}

// flight is one in-progress build all concurrent misses on a key share.
type flight struct {
	done   chan struct{}
	prog   *sim.Program
	source string
	err    error
}

func newProgramCache(capacity int, m *metrics) *programCache {
	return &programCache{
		cap: capacity, order: list.New(),
		items: map[string]*list.Element{}, flights: map[string]*flight{},
		hits:      m.resolutions.With("mem"),
		fromDisk:  m.resolutions.With("disk"),
		compiled:  m.resolutions.With("compile"),
		evictions: m.cacheEvictions,
	}
}

// resolve returns the program for key, building it at most once across
// concurrent callers: a hit returns immediately; the first miss runs build
// (which reports its own source, "disk" or "miss") and inserts the result;
// concurrent misses on the same key wait for that one build and count as
// hits — the thundering herd that used to compile N times compiles once.
// A failed build is not cached; its error propagates to every waiter (the
// build depends only on the key, so their requests would fail identically).
func (c *programCache) resolve(key string, build func() (*sim.Program, string, error)) (*sim.Program, string, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits.Inc()
		c.order.MoveToFront(el)
		prog := el.Value.(*cacheEntry).prog
		c.mu.Unlock()
		return prog, "hit", nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, "", f.err
		}
		c.hits.Inc()
		return f.prog, "hit", nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.prog, f.source, f.err = build()
	if f.source == "disk" {
		c.fromDisk.Inc()
	} else {
		c.compiled.Inc()
	}

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.putLocked(key, f.prog)
	}
	c.mu.Unlock()
	close(f.done)
	return f.prog, f.source, f.err
}

// put inserts a compiled program, evicting the least recently used entry
// beyond capacity. Cold-path insertion goes through resolve, which dedups
// concurrent misses; put remains for replacement (the engine self-heal
// path), where overwriting is the point.
func (c *programCache) put(key string, prog *sim.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, prog)
}

func (c *programCache) putLocked(key string, prog *sim.Program) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).prog = prog
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, prog: prog})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// stats returns the counters and current size.
func (c *programCache) stats() (hits, misses, evictions int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.fromDisk.Value() + c.compiled.Value(), c.evictions.Value(), c.order.Len()
}

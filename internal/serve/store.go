package serve

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"sam/internal/fiber"
	"sam/internal/obs"
	"sam/internal/tensor"
)

// storedTensor is one immutable named operand resident in the tensor store.
// A PUT over an existing name creates a fresh entry with a bumped version —
// the old entry stays alive (delisted) for any queued or running job that
// already resolved it, so in-flight evaluations are never invalidated by a
// replacement or a DELETE. Immutability is what makes the built-storage
// cache below sound: the COO is sorted once at PUT and never touched again.
type storedTensor struct {
	name    string
	version int64
	fp      string
	coo     *tensor.COO // sorted at PUT; read-only afterwards
	bytes   int64

	// pins counts queued or running jobs referencing this entry; guarded by
	// the store mutex. Pinned entries are exempt from budget eviction.
	pins int

	// built caches fibertree storage per binding signature (bind.Cache):
	// the first run binding this entry pays construction, later runs — and
	// concurrent jobs, which share the tree read-only — do not.
	builtMu sync.Mutex
	built   map[string]*fiber.Tensor
}

// info snapshots the entry for the wire. Callers hold the store mutex or an
// entry resolved before any replacement (entries are immutable either way).
func (e *storedTensor) info() TensorInfo {
	return TensorInfo{
		Name: e.name, Version: e.version, Fingerprint: e.fp,
		Dims: e.coo.Dims, NNZ: e.coo.NNZ(), Bytes: e.bytes,
	}
}

// tensorStore is the named operand store behind PUT/GET/DELETE
// /v1/tensors/{name}: an LRU with a bytes budget over immutable COO
// tensors, plus the bind.Cache implementation that lets evaluation reuse
// fibertree storage built on earlier runs. Safe for concurrent use.
type tensorStore struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	order  *list.List // front = most recent; values are *storedTensor
	elem   map[string]*list.Element
	// byCOO indexes live entries by their COO identity, the key bind.Cache
	// lookups arrive with; delisted entries drop out, so a replaced
	// tensor's storage is rebuilt (once) by jobs still holding it.
	byCOO   map[*tensor.COO]*storedTensor
	nextVer int64

	// The counters are the sam_tensor_store_ops_total{op} series of the
	// server's metrics registry, resolved once here: /v1/stats reads the
	// numbers /metrics shows.
	puts, deletes, refHits, refMisses, evictions, bindHits, bindBuilds *obs.Counter
}

func newTensorStore(budget int64, m *metrics) *tensorStore {
	op := m.tensorOps.With
	return &tensorStore{
		budget: budget, order: list.New(),
		elem: map[string]*list.Element{}, byCOO: map[*tensor.COO]*storedTensor{},
		puts: op("put"), deletes: op("delete"), refHits: op("ref_hit"), refMisses: op("ref_miss"),
		evictions: op("evict"), bindHits: op("bind_hit"), bindBuilds: op("bind_build"),
	}
}

// put stores a tensor under name, replacing any existing entry (new
// version, old entry delisted but untouched), and evicts least-recently-
// used unpinned entries beyond the bytes budget. A single tensor larger
// than the whole budget is rejected — it could never be admitted without
// evicting everything and still busting the budget.
func (ts *tensorStore) put(name string, coo *tensor.COO) (*storedTensor, error) {
	coo.Sort()
	bytes := cooBytes(coo)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.budget > 0 && bytes > ts.budget {
		return nil, fmt.Errorf("tensor %q needs %d bytes, store budget is %d", name, bytes, ts.budget)
	}
	if el, ok := ts.elem[name]; ok {
		ts.delistLocked(el)
	}
	ts.nextVer++
	e := &storedTensor{
		name: name, version: ts.nextVer, fp: tensorFingerprint(coo),
		coo: coo, bytes: bytes,
	}
	ts.elem[name] = ts.order.PushFront(e)
	ts.byCOO[coo] = e
	ts.bytes += bytes
	ts.puts.Inc()
	// Pin the fresh entry through its own sweep: a PUT must never evict the
	// tensor it just acknowledged, even when everything older is pinned. The
	// store may sit over budget until a job finishes and unpin retries.
	e.pins++
	ts.evictLocked()
	e.pins--
	return e, nil
}

// get returns the entry for name, counting it as a use.
func (ts *tensorStore) get(name string) (*storedTensor, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	el, ok := ts.elem[name]
	if !ok {
		return nil, false
	}
	ts.order.MoveToFront(el)
	return el.Value.(*storedTensor), true
}

// delete removes name from the store. The entry object survives for any
// job still holding it; only the store stops listing it.
func (ts *tensorStore) delete(name string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	el, ok := ts.elem[name]
	if !ok {
		return false
	}
	ts.delistLocked(el)
	ts.deletes.Inc()
	return true
}

// resolve looks up a {"ref": name} evaluation input and pins the entry
// until unpin — the queued/running window in which eviction must not drop
// it. Counts a ref hit or miss.
func (ts *tensorStore) resolve(name string) (*storedTensor, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	el, ok := ts.elem[name]
	if !ok {
		ts.refMisses.Inc()
		return nil, false
	}
	ts.refHits.Inc()
	ts.order.MoveToFront(el)
	e := el.Value.(*storedTensor)
	e.pins++
	return e, true
}

// unpin releases a resolve pin and retries eviction: entries that were
// pinned past the budget become evictable the moment their last job ends.
func (ts *tensorStore) unpin(e *storedTensor) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if e.pins > 0 {
		e.pins--
	}
	ts.evictLocked()
}

// delistLocked removes an entry from every index without touching the
// entry itself.
func (ts *tensorStore) delistLocked(el *list.Element) {
	e := el.Value.(*storedTensor)
	ts.order.Remove(el)
	delete(ts.elem, e.name)
	delete(ts.byCOO, e.coo)
	ts.bytes -= e.bytes
}

// evictLocked drops least-recently-used unpinned entries until the store
// fits its budget. Pinned entries are skipped, so a fully pinned store may
// sit over budget until jobs finish and unpin retries.
func (ts *tensorStore) evictLocked() {
	if ts.budget <= 0 {
		return
	}
	for el := ts.order.Back(); el != nil && ts.bytes > ts.budget; {
		prev := el.Prev()
		if e := el.Value.(*storedTensor); e.pins == 0 {
			ts.delistLocked(el)
			ts.evictions.Inc()
		}
		el = prev
	}
}

// Lookup implements bind.Cache: storage memoized for a store-managed
// source tensor. Misses on tensors the store does not list (inline request
// operands, replaced entries) — those rebuild per run.
func (ts *tensorStore) Lookup(src *tensor.COO, sig string) (*fiber.Tensor, bool) {
	ts.mu.Lock()
	e := ts.byCOO[src]
	ts.mu.Unlock()
	if e == nil {
		return nil, false
	}
	e.builtMu.Lock()
	ft := e.built[sig]
	e.builtMu.Unlock()
	if ft == nil {
		return nil, false
	}
	ts.bindHits.Inc()
	return ft, true
}

// Store implements bind.Cache: retain freshly built storage, but only for
// tensors the store manages — memoizing an arbitrary inline operand would
// pin unbounded client data.
func (ts *tensorStore) Store(src *tensor.COO, sig string, ft *fiber.Tensor) {
	ts.mu.Lock()
	e := ts.byCOO[src]
	ts.mu.Unlock()
	if e == nil {
		return
	}
	ts.bindBuilds.Inc()
	e.builtMu.Lock()
	if e.built == nil {
		e.built = map[string]*fiber.Tensor{}
	}
	e.built[sig] = ft
	e.builtMu.Unlock()
}

// stats writes the store's residency and counters into the Tensors* fields
// of a /v1/stats response.
func (ts *tensorStore) stats(st *StatsResponse) {
	st.TensorsStored, st.TensorsBytes = ts.size()
	st.TensorsPuts, st.TensorsDeletes = ts.puts.Value(), ts.deletes.Value()
	st.TensorsRefHits, st.TensorsRefMisses = ts.refHits.Value(), ts.refMisses.Value()
	st.TensorsEvictions = ts.evictions.Value()
	st.TensorsBindHits, st.TensorsBindBuilds = ts.bindHits.Value(), ts.bindBuilds.Value()
}

// size reports resident entry count and bytes for the live gauges.
func (ts *tensorStore) size() (int, int64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.order.Len(), ts.bytes
}

// cooBytes estimates a tensor's resident size: per-point value, coordinate
// slice, and bookkeeping overheads. An estimate is enough — the budget
// bounds memory to within a small constant factor, it is not an allocator.
func cooBytes(t *tensor.COO) int64 {
	order := int64(t.Order())
	return 64 + 8*order + int64(len(t.Pts))*(40+8*order)
}

// tensorFingerprint hashes a sorted tensor's dims, coordinates, and value
// bits into the version-independent content fingerprint stamped into
// responses: two uploads of identical data fingerprint identically even
// though their versions differ.
func tensorFingerprint(t *tensor.COO) string {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wr(uint64(len(t.Dims)))
	for _, d := range t.Dims {
		wr(uint64(d))
	}
	wr(uint64(len(t.Pts)))
	for _, p := range t.Pts {
		for _, c := range p.Crd {
			wr(uint64(c))
		}
		wr(math.Float64bits(p.Val))
	}
	return fmt.Sprintf("t%016x", h.Sum64())
}

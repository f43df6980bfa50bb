package serve

import (
	"math/rand"
	"testing"

	"sam/internal/fiber"
	"sam/internal/tensor"
)

// vec builds a small strictly-sorted test vector.
func vec(name string, n int, vals ...float64) *tensor.COO {
	t := tensor.NewCOO(name, n)
	for i, v := range vals {
		t.Append(v, int64(i))
	}
	return t
}

// storeStats snapshots the store's share of a /v1/stats response.
func storeStats(ts *tensorStore) (st StatsResponse) {
	ts.stats(&st)
	return st
}

func TestTensorStorePutGetDelete(t *testing.T) {
	ts := newTensorStore(1<<20, newMetrics())
	a := vec("a", 4, 1, 2, 3)
	e1, err := ts.put("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if e1.version != 1 {
		t.Fatalf("first put version %d, want 1", e1.version)
	}
	got, ok := ts.get("a")
	if !ok || got != e1 {
		t.Fatalf("get returned %v, %v", got, ok)
	}
	if got.fp == "" || got.coo.NNZ() != 3 {
		t.Fatalf("entry not populated: fp=%q nnz=%d", got.fp, got.coo.NNZ())
	}

	// Replacing bumps the version; identical content keeps the fingerprint.
	e2, err := ts.put("a", vec("a", 4, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if e2.version != 2 {
		t.Fatalf("replacement version %d, want 2", e2.version)
	}
	if e2.fp != e1.fp {
		t.Fatalf("identical content changed fingerprint: %q vs %q", e2.fp, e1.fp)
	}
	e3, err := ts.put("a", vec("a", 4, 9, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if e3.fp == e1.fp {
		t.Fatal("different content kept the fingerprint")
	}

	if !ts.delete("a") {
		t.Fatal("delete reported missing")
	}
	if _, ok := ts.get("a"); ok {
		t.Fatal("get succeeded after delete")
	}
	if ts.delete("a") {
		t.Fatal("second delete reported success")
	}
	st := storeStats(ts)
	if st.TensorsStored != 0 || st.TensorsBytes != 0 {
		t.Fatalf("store not empty after delete: %+v", st)
	}
	if st.TensorsPuts != 3 || st.TensorsDeletes != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestTensorStoreBudgetEviction(t *testing.T) {
	mk := func(name string, nnz int) *tensor.COO {
		rng := rand.New(rand.NewSource(1))
		return tensor.UniformRandom(name, rng, nnz, 10*nnz)
	}
	one := cooBytes(mk("x", 50))
	ts := newTensorStore(2*one+one/2, newMetrics()) // room for two entries, not three

	for _, name := range []string{"a", "b", "c"} {
		if _, err := ts.put(name, mk(name, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := ts.get("a"); ok {
		t.Fatal("least-recently-used entry survived over-budget put")
	}
	if _, ok := ts.get("b"); !ok {
		t.Fatal("entry b evicted within budget")
	}
	if st := storeStats(ts); st.TensorsEvictions != 1 || st.TensorsStored != 2 {
		t.Fatalf("eviction counters: %+v", st)
	}

	// Touch recency: get("b") above made c the LRU candidate.
	if _, err := ts.put("d", mk("d", 50)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.get("c"); ok {
		t.Fatal("LRU order ignored recency: c should have been evicted")
	}
	if _, ok := ts.get("b"); !ok {
		t.Fatal("recently used b evicted")
	}

	// An upload larger than the whole budget is rejected outright.
	if _, err := ts.put("huge", mk("huge", 5000)); err == nil {
		t.Fatal("over-budget tensor accepted")
	}
}

// TestTensorStorePinBlocksEviction pins an entry the way a queued job does
// and asserts the budget sweep skips it until unpin.
func TestTensorStorePinBlocksEviction(t *testing.T) {
	mk := func(name string, nnz int) *tensor.COO {
		rng := rand.New(rand.NewSource(2))
		return tensor.UniformRandom(name, rng, nnz, 10*nnz)
	}
	one := cooBytes(mk("x", 50))
	ts := newTensorStore(one+one/2, newMetrics()) // room for one entry only

	if _, err := ts.put("a", mk("a", 50)); err != nil {
		t.Fatal(err)
	}
	ent, ok := ts.resolve("a")
	if !ok {
		t.Fatal("resolve missed a stored tensor")
	}
	// "a" is pinned: a second put must go over budget without evicting it.
	if _, err := ts.put("b", mk("b", 50)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.get("a"); !ok {
		t.Fatal("pinned entry evicted")
	}
	if st := storeStats(ts); st.TensorsStored != 2 {
		t.Fatalf("stored %d, want 2 while pinned over budget", st.TensorsStored)
	}
	// Unpin retries the sweep: the store must fall back under budget, so
	// exactly one entry survives.
	ts.unpin(ent)
	if st := storeStats(ts); st.TensorsStored != 1 || st.TensorsEvictions != 1 {
		t.Fatalf("after unpin: %+v", st)
	}
}

// TestTensorStoreBindCache exercises the bind.Cache face: storage is
// memoized only for store-managed tensors, hits return the identical tree,
// and delete/replace invalidate by identity.
func TestTensorStoreBindCache(t *testing.T) {
	ts := newTensorStore(1<<20, newMetrics())
	a := vec("a", 8, 1, 2, 3, 4)
	ent, err := ts.put("a", a)
	if err != nil {
		t.Fatal(err)
	}
	const sig = "a|0,|2,"
	if _, ok := ts.Lookup(ent.coo, sig); ok {
		t.Fatal("lookup hit before any store")
	}
	ft, err := ent.coo.BuildNamed("a", fiber.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	ts.Store(ent.coo, sig, ft)
	got, ok := ts.Lookup(ent.coo, sig)
	if !ok || got != ft {
		t.Fatalf("lookup after store: %v, %v", got, ok)
	}
	if _, ok := ts.Lookup(ent.coo, "other|sig"); ok {
		t.Fatal("lookup hit a different signature")
	}

	// Inline (unmanaged) tensors are never retained.
	inline := vec("z", 8, 5, 6)
	ift, err := inline.BuildNamed("z", fiber.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	ts.Store(inline, sig, ift)
	if _, ok := ts.Lookup(inline, sig); ok {
		t.Fatal("unmanaged tensor was memoized")
	}

	// Delete delists the identity: the old tree is no longer served.
	ts.delete("a")
	if _, ok := ts.Lookup(ent.coo, sig); ok {
		t.Fatal("lookup hit a deleted entry")
	}

	st := storeStats(ts)
	if st.TensorsBindHits != 1 || st.TensorsBindBuilds != 1 {
		t.Fatalf("bind counters: hits %d builds %d, want 1 and 1", st.TensorsBindHits, st.TensorsBindBuilds)
	}
}

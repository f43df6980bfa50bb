package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sam/internal/tensor"
)

// artifactFiles lists the artifact store's entries (temp files excluded).
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "v*.sambc"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// evalOn posts one request and returns the decoded response, failing on any
// non-200.
func evalOn(t *testing.T, url string, req *EvaluateRequest) *EvaluateResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	decode(t, body, &er)
	return &er
}

// TestDiskCacheColdWarm drives the full disk-cache life cycle: a compile
// miss persists an artifact, a fresh server resolves the same request from
// disk ("disk", one disk hit), and its second request is an ordinary
// in-memory hit — with bit-identical outputs across all three.
func TestDiskCacheColdWarm(t *testing.T) {
	dir := t.TempDir()
	req, _ := spmvRequest(7, 0, "comp")

	sA := NewServer(Config{Workers: 1, ArtifactDir: dir})
	tsA := httptest.NewServer(sA)
	cold := evalOn(t, tsA.URL, req)
	if cold.Cache != "miss" {
		t.Fatalf("first request was a cache %q, want miss", cold.Cache)
	}
	if cold.Engine != "comp" {
		t.Fatalf("first request ran on %q, want comp", cold.Engine)
	}
	stA := sA.Stats()
	if stA.DiskWrites != 1 || stA.DiskMisses != 1 || stA.DiskHits != 0 {
		t.Errorf("server A disk counters = hits %d misses %d writes %d, want 0/1/1",
			stA.DiskHits, stA.DiskMisses, stA.DiskWrites)
	}
	if n := len(artifactFiles(t, dir)); n != 1 {
		t.Fatalf("artifact store holds %d files after one compile, want 1", n)
	}
	tsA.Close()
	sA.Close()

	sB := NewServer(Config{Workers: 1, ArtifactDir: dir})
	defer sB.Close()
	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	disk := evalOn(t, tsB.URL, req)
	if disk.Cache != "disk" {
		t.Fatalf("fresh server's request was a cache %q, want disk", disk.Cache)
	}
	if disk.Engine != "comp" {
		t.Errorf("disk-served request ran on %q, want comp", disk.Engine)
	}
	if disk.Fingerprint != cold.Fingerprint {
		t.Errorf("disk-served fingerprint %q differs from compiled %q", disk.Fingerprint, cold.Fingerprint)
	}
	warm := evalOn(t, tsB.URL, req)
	if warm.Cache != "hit" {
		t.Errorf("second request on the fresh server was a cache %q, want hit", warm.Cache)
	}
	stB := sB.Stats()
	if stB.DiskHits != 1 || stB.DiskErrors != 0 {
		t.Errorf("server B disk counters = hits %d errors %d, want 1/0", stB.DiskHits, stB.DiskErrors)
	}
	a := wireToCOO(t, cold.Output)
	for name, er := range map[string]*EvaluateResponse{"disk": disk, "warm": warm} {
		if err := tensor.IdenticalBits(a, wireToCOO(t, er.Output)); err != nil {
			t.Errorf("%s output differs from compiled run: %v", name, err)
		}
	}
}

// TestDiskCacheBadArtifacts overwrites the persisted artifact with hostile
// bytes and checks each flavor degrades to a clean recompile: cache "miss",
// an error counted, the bad file healed (deleted and rewritten).
func TestDiskCacheBadArtifacts(t *testing.T) {
	seedDir := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		req, _ := spmvRequest(7, 0, "comp")
		s := NewServer(Config{Workers: 1, ArtifactDir: dir})
		ts := httptest.NewServer(s)
		evalOn(t, ts.URL, req)
		ts.Close()
		s.Close()
		files := artifactFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("seed wrote %d artifacts, want 1", len(files))
		}
		return dir, files[0]
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not an artifact at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-skew", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The version lives right after the 5-byte magic; a bumped value
			// must read as "wrong version", not as a parseable payload.
			data[5]++
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, path := seedDir(t)
			tc.corrupt(t, path)
			req, _ := spmvRequest(7, 0, "comp")
			s := NewServer(Config{Workers: 1, ArtifactDir: dir})
			defer s.Close()
			ts := httptest.NewServer(s)
			defer ts.Close()
			er := evalOn(t, ts.URL, req)
			if er.Cache != "miss" {
				t.Errorf("request over a %s artifact was a cache %q, want miss (recompile)", tc.name, er.Cache)
			}
			st := s.Stats()
			if st.DiskErrors != 1 {
				t.Errorf("disk_errors = %d, want 1", st.DiskErrors)
			}
			if st.DiskHits != 0 {
				t.Errorf("disk_hits = %d, want 0", st.DiskHits)
			}
			// The recompile must heal the store: bad file gone, fresh
			// artifact written in its place.
			if st.DiskWrites != 1 {
				t.Errorf("disk_writes = %d, want 1 (healed artifact)", st.DiskWrites)
			}
			if n := len(artifactFiles(t, dir)); n != 1 {
				t.Errorf("store holds %d files after healing, want 1", n)
			}
		})
	}
}

// TestDiskCacheEngineGating checks the two engine-dependent behaviors: a
// cycle-engine request never consults the disk (it needs the source graph),
// and a cycle-engine request that finds an artifact-backed program in the
// in-memory cache forces a recompile that replaces the entry (self-heal)
// instead of failing.
func TestDiskCacheEngineGating(t *testing.T) {
	dir := t.TempDir()
	compReq, _ := spmvRequest(7, 0, "comp")
	eventReq, inputs := spmvRequest(7, 0, "")

	// Seed the disk store.
	s := NewServer(Config{Workers: 1, ArtifactDir: dir})
	ts := httptest.NewServer(s)
	evalOn(t, ts.URL, compReq)
	ts.Close()
	s.Close()

	// A default-engine (event) request on a fresh server must compile — the
	// warm disk is for the comp engine only.
	s2 := NewServer(Config{Workers: 1, ArtifactDir: dir})
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	ev := evalOn(t, ts2.URL, eventReq)
	if ev.Cache != "miss" {
		t.Errorf("event request on a warm disk was a cache %q, want miss", ev.Cache)
	}
	if ev.Cycles <= 0 {
		t.Errorf("event request reported %d cycles, want > 0", ev.Cycles)
	}
	if st := s2.Stats(); st.DiskHits != 0 {
		t.Errorf("event request consulted the disk: disk_hits = %d, want 0", st.DiskHits)
	}

	// Self-heal: comp first (artifact-backed program lands in the LRU), then
	// event on the same key must recompile, not 400, and the outputs agree.
	s3 := NewServer(Config{Workers: 1, ArtifactDir: dir})
	defer s3.Close()
	ts3 := httptest.NewServer(s3)
	defer ts3.Close()
	bt := evalOn(t, ts3.URL, compReq)
	if bt.Cache != "disk" {
		t.Fatalf("comp request was a cache %q, want disk", bt.Cache)
	}
	ev3 := evalOn(t, ts3.URL, eventReq)
	if ev3.Cache != "miss" {
		t.Errorf("event request after a disk load was a cache %q, want miss (self-heal recompile)", ev3.Cache)
	}
	if ev3.Cycles <= 0 {
		t.Errorf("self-healed event request reported %d cycles, want > 0", ev3.Cycles)
	}
	if err := tensor.IdenticalBits(wireToCOO(t, bt.Output), wireToCOO(t, ev3.Output)); err != nil {
		t.Errorf("comp and self-healed event outputs differ: %v", err)
	}
	// And the healed (graph-backed) program serves comp again via the LRU.
	bt2 := evalOn(t, ts3.URL, compReq)
	if bt2.Cache != "hit" {
		t.Errorf("comp request after self-heal was a cache %q, want hit", bt2.Cache)
	}
	_ = inputs
}

// TestDiskCacheConcurrentLoads hammers one warm artifact from many clients
// on a fresh server, the disk-cache analogue of TestBatchSharedProgramRace:
// every response must succeed with bit-identical output, however the
// concurrent loads interleave (run under -race in CI).
func TestDiskCacheConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	req, _ := spmvRequest(7, 0, "comp")
	s := NewServer(Config{Workers: 1, ArtifactDir: dir})
	ts := httptest.NewServer(s)
	want := evalOn(t, ts.URL, req)
	ts.Close()
	s.Close()

	s2 := NewServer(Config{Workers: 4, QueueDepth: 64, ArtifactDir: dir})
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	outs := make([]*EvaluateResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts2.URL+"/v1/evaluate", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var er EvaluateResponse
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				errs[i] = err
				return
			}
			outs[i] = &er
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	ref := wireToCOO(t, want.Output)
	for i, er := range outs {
		if er == nil {
			continue // already reported
		}
		if er.Engine != "comp" {
			t.Errorf("client %d ran on %q, want comp", i, er.Engine)
		}
		if err := tensor.IdenticalBits(ref, wireToCOO(t, er.Output)); err != nil {
			t.Errorf("client %d output diverged under concurrent artifact loads: %v", i, err)
		}
	}
	st := s2.Stats()
	if st.DiskHits < 1 {
		t.Errorf("disk_hits = %d, want >= 1", st.DiskHits)
	}
	if st.Failures != 0 {
		t.Errorf("failures = %d, want 0", st.Failures)
	}
}

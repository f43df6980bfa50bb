package serve

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"sam/internal/obs"
	"sam/internal/prog"
	"sam/internal/sim"
)

// diskCache is the persistent artifact store behind the in-memory program
// LRU: canonical request key to an encoded program artifact (internal/prog)
// on disk. A warm disk entry lets a cold process serve comp-engine
// requests by decoding the artifact — no parse beyond keying, no custard
// compilation, no lowering — which is the artifact format's
// whole reason to exist.
//
// The store is best-effort by design: every failure mode (unreadable dir,
// corrupt or truncated file, version skew, artifact-less bitvector graph)
// degrades to a compile, never to a request error. Writes are atomic
// (temp file + rename) so a concurrent loader never observes a partial
// artifact, and corrupt files are deleted on sight so the next compile
// heals the entry. Safe for concurrent use; the counters live in the
// server's metrics registry (sam_disk_cache_total{event}), resolved once
// here so every update is a single atomic add.
type diskCache struct {
	dir string

	hits, misses, writes, errors *obs.Counter
}

// newDiskCache opens an artifact directory, creating it if needed. Creation
// failure does not disable the store — a later mkdir may succeed, and every
// store/load failure already degrades to a counted miss — so the constructor
// never fails.
func newDiskCache(dir string, m *metrics) *diskCache {
	_ = os.MkdirAll(dir, 0o755)
	return &diskCache{
		dir:    dir,
		hits:   m.disk.With("hit"),
		misses: m.disk.With("miss"),
		writes: m.disk.With("write"),
		errors: m.disk.With("error"),
	}
}

// path maps a canonical request key to its artifact filename. The name
// embeds the artifact format version, so builds that read different
// versions never alias each other's files: a version bump turns the whole
// store into clean misses instead of per-request decode errors.
func (d *diskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, fmt.Sprintf("v%d-%x.sambc", prog.Version, sum[:12]))
}

// load resolves a key against the store. Any failure — absent file, corrupt
// bytes, version skew inside the file, hostile structure — is a miss;
// decode-level failures additionally count as errors and delete the file so
// a later store rewrites a good copy.
func (d *diskCache) load(key string) (*sim.Program, bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.misses.Inc()
		return nil, false
	}
	bp, err := prog.Decode(data)
	if err == nil {
		var p *sim.Program
		if p, err = sim.NewProgramFromArtifact(bp); err == nil {
			d.hits.Inc()
			return p, true
		}
	}
	d.errors.Inc()
	d.misses.Inc()
	_ = os.Remove(path)
	return nil, false
}

// store persists a program's artifact under the key. Programs with no
// artifact form (bitvector graphs, which the compiled lowering rejects) are
// skipped silently; write failures count but never surface.
func (d *diskCache) store(key string, p *sim.Program) {
	enc, err := p.Artifact()
	if err != nil {
		return
	}
	_ = os.MkdirAll(d.dir, 0o755)
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		d.errors.Inc()
		return
	}
	_, werr := tmp.Write(enc)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		d.errors.Inc()
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		d.errors.Inc()
		_ = os.Remove(tmp.Name())
		return
	}
	d.writes.Inc()
}

// stats snapshots the counters.
func (d *diskCache) stats() (hits, misses, writes, errors int64) {
	return d.hits.Value(), d.misses.Value(), d.writes.Value(), d.errors.Value()
}

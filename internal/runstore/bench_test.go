package runstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
)

// benchKey is the i-th distinct key of a benchmark; tag separates the
// pre-filled records from the ones a benchmark puts.
func benchKey(cfg core.Config, tag byte, i int) runcache.Key {
	var fp [32]byte
	fp[0] = tag
	binary.LittleEndian.PutUint64(fp[1:], uint64(i))
	return runcache.KeyFor(cfg, fp)
}

// prefill writes n real records straight into dir, without fsync and
// without a store, so that a large store sets up in seconds.
func prefill(b *testing.B, dir string, n int) (core.Config, *stats.Sim) {
	b.Helper()
	_, cfg, st := simulate(b, nil)
	for i := range n {
		rec := Record{Schema: Schema, Key: benchKey(cfg, 1, i).String(), Config: cfg, Sim: *st, StoredUnix: 1}
		raw, err := json.Marshal(&rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rec.Key+".json"), raw, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return cfg, st
}

// BenchmarkPut times one put of a new key into a full store: the record
// write plus the eviction of the oldest record. The cost should not grow
// with the store's size.
func BenchmarkPut(b *testing.B) {
	for _, n := range []int{331, DefaultMaxEntries} {
		dir := b.TempDir()
		cfg, st := prefill(b, dir, n)
		next := 0 // keys stay new across the runs b.Run makes
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			s, err := Open(dir, Options{MaxEntries: n})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if err := s.Put(benchKey(cfg, 2, next), cfg, st); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

// BenchmarkOpen times opening a store of DefaultMaxEntries records.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	prefill(b, dir, DefaultMaxEntries)
	b.Run(fmt.Sprintf("records=%d", DefaultMaxEntries), func(b *testing.B) {
		for range b.N {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != DefaultMaxEntries {
				b.Fatalf("Len = %d, want %d", s.Len(), DefaultMaxEntries)
			}
		}
	})
}

package runstore

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
)

func testImage(t testing.TB) *program.Image {
	t.Helper()
	img, err := asm.Assemble(`
        li   r1, 8
        li   r2, 0
        setb b0, loop
loop:   add  r2, r2, r1
        addi r1, r1, -1
        pbr  ne, r1, b0, 2
        nop
        nop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// simulate runs one real simulation and returns everything the archive
// stores: the key, the configuration and the statistics.
func simulate(t testing.TB, mutate func(*core.Config)) (runcache.Key, core.Config, *stats.Sim) {
	t.Helper()
	img := testImage(t)
	cfg := core.DefaultConfig()
	cfg.CacheIntrospect = true
	if mutate != nil {
		mutate(&cfg)
	}
	sim, err := core.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return runcache.KeyFor(cfg, img.Fingerprint()), cfg, st
}

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip pins archive determinism: a stored record — including the
// introspection block and a per-loop table — reloads DeepEqual, both from
// the live store and after a fresh Open of the same directory.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	key, cfg, st := simulate(t, nil)
	rec := &Record{
		Key:    key.String(),
		Config: cfg,
		Sim:    *st,
		PerLoop: []obs.LoopStat{
			{Loop: 0, Name: "outside", Cycles: 10, Buckets: [stats.NumCycleBuckets]uint64{4, 3, 1, 1, 1, 0}},
			{Loop: 7, Name: "equation-of-state", Cycles: 90, Instructions: 60,
				CacheMisses: 5, MissCompulsory: 2, MissCapacity: 2, MissConflict: 1},
		},
	}
	if err := s.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored record not found")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}

	// And again through a brand-new Store over the same directory — the
	// restart path.
	s2 := openStore(t, dir, Options{})
	got2, ok := s2.Get(key)
	if !ok {
		t.Fatal("record not found after reopen")
	}
	if !reflect.DeepEqual(got2, rec) {
		t.Errorf("reopened round trip mismatch:\n got %+v\nwant %+v", got2, rec)
	}
	if s2.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1", s2.Len())
	}
}

// TestTierRoundTrip pins the cache integration: a fresh simulation through
// a store-backed cache is written through to disk, and a second cache (a
// simulated process restart: cold memory, same directory) serves it from
// the store without simulating, bit-identically.
func TestTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := testImage(t)
	cfg := core.DefaultConfig()

	s1 := openStore(t, dir, Options{})
	c1 := runcache.New(8)
	c1.SetStore(s1)
	st1, src, err := c1.RunSource(t.Context(), cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if src != runcache.SourceSimulated {
		t.Fatalf("first run source = %v, want simulated", src)
	}
	if n := s1.Counters().Writes; n != 1 {
		t.Fatalf("store writes = %d, want 1", n)
	}

	// "Restart": cold memory cache, fresh Store over the same directory.
	s2 := openStore(t, dir, Options{})
	c2 := runcache.New(8)
	c2.SetStore(s2)
	st2, src, err := c2.RunSource(t.Context(), cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if src != runcache.SourceStore {
		t.Fatalf("post-restart source = %v, want store", src)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Error("store-served statistics differ from the simulated ones")
	}

	// The store hit was promoted: the next lookup is a memory hit.
	_, src, err = c2.RunSource(t.Context(), cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if src != runcache.SourceMemory {
		t.Errorf("promoted lookup source = %v, want memory", src)
	}
}

// TestCorruptTolerance: corrupt and truncated entry files are misses (and
// are removed); a structurally valid record of a foreign schema is a miss
// but is left on disk.
func TestCorruptTolerance(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	key, cfg, st := simulate(t, nil)
	if err := s.Put(key, cfg, st); err != nil {
		t.Fatal(err)
	}
	path := s.entryPath(key.String())

	// Truncate mid-JSON.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("truncated record served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated record file not removed")
	}

	// Pure garbage.
	if err := s.Put(key, cfg, st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt record served as a hit")
	}

	// Foreign schema: miss, but the file survives (a newer replica's data).
	if err := os.WriteFile(path, []byte(`{"schema":"pipesim-runs/v999","key":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("foreign-schema record served as a hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("foreign-schema record was removed: %v", err)
	}

	c := s.Counters()
	if c.Misses < 3 {
		t.Errorf("misses = %d, want >= 3", c.Misses)
	}
}

// TestOpenReconciles: Open's directory scan finds every record, and a
// record whose file vanished is dropped.
func TestOpenReconciles(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	key1, cfg, st := simulate(t, nil)
	key2, cfg2, st2 := simulate(t, func(c *core.Config) { c.CacheBytes = 256 })
	if err := s.Put(key1, cfg, st); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key2, cfg2, st2); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if s2.Len() != 2 {
		t.Fatalf("scan-rebuilt Len = %d, want 2", s2.Len())
	}
	if _, ok := s2.Get(key1); !ok {
		t.Error("key1 lost after reopen")
	}

	// Remove one entry file behind the store's back: it is gone at Open.
	if err := os.Remove(s2.entryPath(key2.String())); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{})
	if s3.Len() != 1 {
		t.Errorf("Len after losing an entry file = %d, want 1", s3.Len())
	}
	if _, ok := s3.Get(key2); ok {
		t.Error("vanished entry served as a hit")
	}
}

// TestBoundedGC: both bounds evict oldest-first.
func TestBoundedGC(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{MaxEntries: 3})
	_, cfg, st := simulate(t, nil)
	var keys []runcache.Key
	for i := 0; i < 5; i++ {
		c := cfg
		c.CacheBytes = 64 << i
		k := runcache.KeyFor(c, [32]byte{byte(i)})
		keys = append(keys, k)
		if err := s.Put(k, c, st); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if c := s.Counters(); c.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", c.Evictions)
	}
	for i, k := range keys {
		_, ok := s.Get(k)
		if want := i >= 2; ok != want {
			t.Errorf("key %d present = %v, want %v", i, ok, want)
		}
	}

	// A byte bound small enough for one record forces eviction down to a
	// single entry.
	one := s.List()[0].Bytes
	s2 := openStore(t, t.TempDir(), Options{MaxBytes: one + one/2})
	for i := 0; i < 3; i++ {
		c := cfg
		c.CacheBytes = 64 << i
		if err := s2.Put(runcache.KeyFor(c, [32]byte{byte(i)}), c, st); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Len() != 1 {
		t.Errorf("byte-bounded Len = %d, want 1", s2.Len())
	}
}

// TestConcurrentWriters hammers one store from many goroutines (run under
// -race): concurrent puts of shared and distinct keys with interleaved
// gets and lists must stay consistent.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	_, cfg, st := simulate(t, nil)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := cfg
				c.CacheBytes = 64 << (i % 4) // shared across workers
				c.LineBytes = 8
				k := runcache.KeyFor(c, [32]byte{byte(i % 4)})
				if err := s.Put(k, c, st); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, ok := s.Get(k); !ok {
					t.Errorf("worker %d: just-written key missing", w)
					return
				}
				s.List()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4 distinct keys", s.Len())
	}
	want := fmt.Sprintf("%d", workers*10)
	if got := fmt.Sprintf("%d", s.Counters().Writes); got != want {
		t.Errorf("writes = %s, want %s", got, want)
	}
}

// TestConcurrentPutsDistinctKeys: record writes run outside the store
// mutex, so 8 goroutines putting distinct keys overlap their disk I/O
// (run under -race). Every put must land: the live store and a reopened
// one both list every key.
func TestConcurrentPutsDistinctKeys(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	_, cfg, st := simulate(t, nil)
	const workers, perWorker = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := s.Put(runcache.KeyFor(cfg, [32]byte{byte(w), byte(i)}), cfg, st); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	want := make(map[string]bool)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			want[runcache.KeyFor(cfg, [32]byte{byte(w), byte(i)}).String()] = true
		}
	}
	for name, store := range map[string]*Store{"live": s, "reopened": openStore(t, dir, Options{})} {
		got := make(map[string]bool)
		for _, e := range store.List() {
			got[e.Key] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s store lists %d keys, want the %d put", name, len(got), len(want))
		}
	}
	if w := s.Counters().Writes; w != workers*perWorker {
		t.Errorf("writes = %d, want %d", w, workers*perWorker)
	}
}

// TestListNewestFirst pins the listing order and summary fields.
func TestListNewestFirst(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	_, cfg, st := simulate(t, nil)
	var last runcache.Key
	for i := 0; i < 3; i++ {
		c := cfg
		c.CacheBytes = 64 << i
		last = runcache.KeyFor(c, [32]byte{byte(i)})
		rec := &Record{Key: last.String(), Config: c, Sim: *st, StoredUnix: int64(1000 + i)}
		if err := s.PutRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	l := s.List()
	if len(l) != 3 {
		t.Fatalf("List len = %d, want 3", len(l))
	}
	if l[0].Key != last.String() {
		t.Errorf("List[0] = %s, want the newest key %s", l[0].Key, last)
	}
	if l[0].Cycles != st.Cycles || l[0].Strategy != cfg.Fetch.String() || l[0].CacheBytes != 256 {
		t.Errorf("List[0] summary = %+v", l[0])
	}
}

// TestConcurrentListAfterReopen: the first Lists of a reopened store read
// the scanned records' summaries outside the mutex while puts replace some
// of those records and add new ones (run under -race). Every key ends up
// listed once, with its summary.
func TestConcurrentListAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	_, cfg, st := simulate(t, nil)
	key := func(i int) runcache.Key { return runcache.KeyFor(cfg, [32]byte{byte(i)}) }
	const scanned, added = 16, 8
	for i := range scanned {
		if err := s.Put(key(i), cfg, st); err != nil {
			t.Fatal(err)
		}
	}
	s = openStore(t, dir, Options{})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.List()
		}()
		go func() {
			defer wg.Done()
			for i := w; i < scanned+added; i += 4 {
				if i%8 == 0 || i >= scanned {
					if err := s.Put(key(i), cfg, st); err != nil {
						t.Errorf("put %d: %v", i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	l := s.List()
	seen := make(map[string]bool)
	for _, e := range l {
		if seen[e.Key] || e.Cycles != st.Cycles {
			t.Errorf("entry %+v listed twice or without its summary", e)
		}
		seen[e.Key] = true
	}
	if len(l) != scanned+added || s.Len() != len(l) {
		t.Errorf("List has %d entries, Len %d, want %d", len(l), s.Len(), scanned+added)
	}
}

// Package runstore is the persistent tier of the run cache: a disk-backed,
// content-addressed archive of complete simulation results. Each archived
// run is one JSON file named by its runcache.Key (the sha256 of the
// canonical configuration plus the program image fingerprint), written
// atomically via temp+rename, so a crash never leaves a half-written
// record visible and replicas can share one store directory over a
// common filesystem.
//
// The store slots under internal/runcache as its second tier — memory LRU
// → disk → simulate — so a restarted daemon serves previously-simulated
// configurations from disk without re-running them, and it doubles as the
// archive behind `pipesim diff` and pipesimd's /v1/runs + /v1/compare:
// any two archived keys can be compared long after the runs happened.
//
// An index file (index.json) accelerates listing and carries per-entry
// summaries, but it is advisory only: lookups always read the entry file
// itself, and Open reconciles the index against a directory scan, so a
// crash between an entry write and the index write — or another replica
// writing into the same directory — loses nothing. Corrupt or truncated
// entry files are treated as misses and removed, never trusted.
package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipesim/internal/core"
	"pipesim/internal/obs"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
)

// Schema identifies the on-disk record layout. Bump on incompatible
// change; Open ignores records with a different schema (they read as
// misses), so a store directory survives upgrades without migration.
const Schema = "pipesim-runs/v1"

// Record is one archived run: the configuration that ran, the complete
// statistics it produced, and (when the run collected them) the per-loop
// breakdown. The statistics are the same stats.Sim the run cache memoizes,
// so a record round-trips to an identical pipesim.Result.
type Record struct {
	Schema string      `json:"schema"`
	Key    string      `json:"key"` // runcache.Key hex — also the file name
	Config core.Config `json:"config"`
	Sim    stats.Sim   `json:"sim"`

	// PerLoop carries the per-Livermore-loop statistics when the archived
	// run collected them (Simulation.CollectPerLoop). Runs archived through
	// the cache tier never have them — a memoized result replays no events.
	PerLoop []obs.LoopStat `json:"per_loop,omitempty"`

	// StoredUnix is the wall-clock time the record was written (seconds).
	// It orders eviction (oldest first) and the /v1/runs listing.
	StoredUnix int64 `json:"stored_unix"`
}

// Entry is one index row: the key plus the summary fields the listing
// endpoints show without opening the record file.
type Entry struct {
	Key          string `json:"key"`
	Bytes        int64  `json:"bytes"`
	StoredUnix   int64  `json:"stored_unix"`
	Strategy     string `json:"strategy"`
	CacheBytes   int    `json:"cache_bytes"`
	LineBytes    int    `json:"line_bytes"`
	MemAccess    int    `json:"mem_access"`
	BusBytes     int    `json:"bus_bytes"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
}

// Counters is a point-in-time snapshot of the store's activity since the
// process opened it. Hits/Misses/Writes/Evictions are monotonic; Entries
// and Bytes are the current occupancy.
type Counters struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	Evictions   uint64 `json:"evictions"`
	WriteErrors uint64 `json:"write_errors,omitempty"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
}

// Options bounds the store. Zero values select the defaults.
type Options struct {
	// MaxEntries caps the archived run count (0 = DefaultMaxEntries).
	MaxEntries int
	// MaxBytes caps the summed entry-file size (0 = DefaultMaxBytes).
	MaxBytes int64
}

// Default garbage-collection bounds: generous for a result archive (a
// record without introspection is ~2 KB), tight enough that a store
// directory can never grow without bound.
const (
	DefaultMaxEntries = 16384
	DefaultMaxBytes   = 256 << 20
)

const indexName = "index.json"

// indexFile is the on-disk index layout.
type indexFile struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Store is an open archive directory. All methods are safe for concurrent
// use; writes from multiple processes sharing the directory are safe at
// the entry level (atomic rename), with each process maintaining its own
// view of the index.
type Store struct {
	dir        string
	maxEntries int
	maxBytes   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	writes    atomic.Uint64
	evictions atomic.Uint64
	writeErrs atomic.Uint64

	mu      sync.Mutex
	entries []Entry        // oldest first (StoredUnix order, ties by scan order)
	byKey   map[string]int // key -> index into entries
	bytes   int64
	writing map[string]int // key -> puts writing its record file right now
}

// Open opens (creating if needed) the archive at dir and reconciles the
// index against the directory contents: entries whose file vanished are
// dropped, record files the index does not know (a crash before the index
// write, or another replica's writes) are scanned back in, and anything
// unreadable is ignored. Open never fails on corrupt store content — only
// on an unusable directory.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{
		dir:        dir,
		maxEntries: opt.MaxEntries,
		maxBytes:   opt.MaxBytes,
		byKey:      make(map[string]int),
		writing:    make(map[string]int),
	}
	if s.maxEntries <= 0 {
		s.maxEntries = DefaultMaxEntries
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

// load builds the in-memory index: the index file where it agrees with the
// directory, a record scan for everything else.
func (s *Store) load() error {
	known := make(map[string]Entry)
	if raw, err := os.ReadFile(filepath.Join(s.dir, indexName)); err == nil {
		var idx indexFile
		if json.Unmarshal(raw, &idx) == nil && idx.Schema == Schema {
			for _, e := range idx.Entries {
				known[e.Key] = e
			}
		}
	}
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	var entries []Entry
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || name == indexName {
			continue
		}
		key := strings.TrimSuffix(name, ".json")
		if _, err := runcache.ParseKey(key); err != nil {
			continue // temp files, foreign content
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if e, ok := known[key]; ok && e.Bytes == info.Size() {
			entries = append(entries, e)
			continue
		}
		// Unknown (or resized) file: rebuild its index row from the record
		// itself. Unreadable records are skipped — Get would reject them too.
		rec, err := readRecord(s.entryPath(key))
		if err != nil || rec.Key != key {
			continue
		}
		entries = append(entries, entryFor(rec, info.Size()))
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].StoredUnix < entries[j].StoredUnix })
	s.entries = entries
	s.byKey = make(map[string]int, len(entries))
	s.bytes = 0
	for i, e := range entries {
		s.byKey[e.Key] = i
		s.bytes += e.Bytes
	}
	return nil
}

func entryFor(rec *Record, size int64) Entry {
	return Entry{
		Key:          rec.Key,
		Bytes:        size,
		StoredUnix:   rec.StoredUnix,
		Strategy:     rec.Config.Fetch.String(),
		CacheBytes:   rec.Config.CacheBytes,
		LineBytes:    rec.Config.LineBytes,
		MemAccess:    rec.Config.Mem.AccessTime,
		BusBytes:     rec.Config.Mem.BusWidthBytes,
		Cycles:       rec.Sim.Cycles,
		Instructions: rec.Sim.CPU.Instructions,
	}
}

// Dir returns the archive directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// errBadSchema marks a structurally valid record of a different (likely
// newer) schema: a miss, but not corruption — the file is left alone.
var errBadSchema = fmt.Errorf("runstore: record schema is not %q", Schema)

// readRecord reads and validates one record file.
func readRecord(path string) (*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	if rec.Schema != Schema {
		return nil, errBadSchema
	}
	return &rec, nil
}

// Get returns the archived record for key. It always reads the entry file
// directly — never the index — so records written by other replicas into a
// shared directory are found even before a re-Open. A corrupt or
// truncated file is a miss; the bad file is removed so it cannot shadow a
// future write. A record with a foreign schema is a miss too, but is left
// on disk (it may belong to a newer replica).
func (s *Store) Get(key runcache.Key) (*Record, bool) {
	hex := key.String()
	rec, err := readRecord(s.entryPath(hex))
	if err != nil {
		if !os.IsNotExist(err) && err != errBadSchema {
			s.dropBad(hex)
		}
		s.misses.Add(1)
		return nil, false
	}
	if rec.Key != hex {
		s.dropBad(hex)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rec, true
}

// dropBad removes a corrupt entry file and its index row.
func (s *Store) dropBad(hexKey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	os.Remove(s.entryPath(hexKey))
	if i, ok := s.byKey[hexKey]; ok {
		s.removeAtLocked(i)
		s.writeIndexLocked()
	}
}

// Put archives one cache-tier result (no per-loop data) under key.
func (s *Store) Put(key runcache.Key, cfg core.Config, st *stats.Sim) error {
	if st == nil {
		return nil
	}
	return s.PutRecord(&Record{Key: key.String(), Config: cfg, Sim: *st})
}

// PutRecord archives a complete record (rec.Key must be set; Schema and
// StoredUnix are filled in). The record's write — temp file, fsync,
// rename — runs outside the store mutex, so concurrent puts of distinct
// keys overlap their disk I/O; only the in-memory entry update, garbage
// collection and the index rewrite hold the lock. A crash between the
// record write and the index write is healed by the next Open's directory
// reconciliation. Storing an existing key replaces it.
func (s *Store) PutRecord(rec *Record) error {
	if _, err := runcache.ParseKey(rec.Key); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	rec.Schema = Schema
	if rec.StoredUnix == 0 {
		rec.StoredUnix = time.Now().Unix()
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		s.writeErrs.Add(1)
		return fmt.Errorf("runstore: encoding %s: %w", rec.Key, err)
	}
	// Mark the key as being written, so a concurrent GC evicting its
	// older record leaves the file alone: it may already be this one.
	s.mu.Lock()
	s.writing[rec.Key]++
	s.mu.Unlock()
	err = s.writeAtomic(s.entryPath(rec.Key), raw)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writing[rec.Key]--; s.writing[rec.Key] == 0 {
		delete(s.writing, rec.Key)
	}
	if err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.writes.Add(1)
	if i, ok := s.byKey[rec.Key]; ok {
		s.removeAtLocked(i)
	}
	s.byKey[rec.Key] = len(s.entries)
	s.entries = append(s.entries, entryFor(rec, int64(len(raw))))
	s.bytes += int64(len(raw))
	s.gcLocked()
	s.writeIndexLocked()
	return nil
}

// writeAtomic writes data to path via temp+fsync+rename.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("runstore: writing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// removeAtLocked deletes entry i from the in-memory index (not the file).
func (s *Store) removeAtLocked(i int) {
	s.bytes -= s.entries[i].Bytes
	delete(s.byKey, s.entries[i].Key)
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	for j := i; j < len(s.entries); j++ {
		s.byKey[s.entries[j].Key] = j
	}
}

// gcLocked evicts oldest-first until both bounds hold.
func (s *Store) gcLocked() {
	for len(s.entries) > 0 && (len(s.entries) > s.maxEntries || s.bytes > s.maxBytes) {
		victim := s.entries[0]
		if s.writing[victim.Key] == 0 {
			os.Remove(s.entryPath(victim.Key))
		}
		s.removeAtLocked(0)
		s.evictions.Add(1)
	}
}

// writeIndexLocked persists the advisory index (atomically; errors are
// counted but otherwise ignored — the index is rebuilt from the directory
// on the next Open).
func (s *Store) writeIndexLocked() {
	raw, err := json.Marshal(indexFile{Schema: Schema, Entries: s.entries})
	if err != nil {
		s.writeErrs.Add(1)
		return
	}
	if err := s.writeAtomic(filepath.Join(s.dir, indexName), raw); err != nil {
		s.writeErrs.Add(1)
	}
}

// List returns the index rows, newest first.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.entries))
	for i, e := range s.entries {
		out[len(out)-1-i] = e
	}
	return out
}

// Len returns the archived run count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the summed entry-file size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Counters snapshots the store's activity counters and occupancy.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Counters{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Evictions:   s.evictions.Load(),
		WriteErrors: s.writeErrs.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// Lookup implements runcache.Tier: the memory cache's read-through to
// disk. Only the statistics travel back up — per-loop data stays on disk
// (the memory tier stores stats.Sim).
func (s *Store) Lookup(k runcache.Key) (stats.Sim, bool) {
	rec, ok := s.Get(k)
	if !ok {
		return stats.Sim{}, false
	}
	return rec.Sim, true
}

// Store implements runcache.Tier: the memory cache's write-through on a
// fresh simulation. Write failures are counted (Counters.WriteErrors) but
// deliberately not propagated — a full or read-only disk must not fail
// the simulation that produced the result.
func (s *Store) Store(k runcache.Key, cfg core.Config, st *stats.Sim) {
	s.Put(k, cfg, st) // error already counted in writeErrs
}

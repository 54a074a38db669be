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
// The record files are the store's only on-disk state. Open lists the
// directory by name and reads no record; List reads a scanned record's
// summary the first time it lists it; lookups always read the record file
// itself, so another replica writing into the same directory loses
// nothing. Corrupt or truncated record files are treated as misses and
// removed, never trusted.
package runstore

import (
	"container/list"
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
	// Eviction and the /v1/runs listing follow put order, and file
	// modification time across a reopen.
	StoredUnix int64 `json:"stored_unix"`
}

// Entry is one listed run: the key plus the summary fields the listing
// endpoints show without opening the record file again.
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

// Store is an open archive directory. All methods are safe for concurrent
// use; writes from multiple processes sharing the directory are safe at
// the entry level (atomic rename), with each process keeping its own view
// of the entries.
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
	ll      *list.List // oldest first; values are *entry
	byKey   map[string]*list.Element
	bytes   int64
	writing map[string]int // key -> puts writing its record file right now
}

// entry is one archived run in the store's view. An entry Open found by
// its name carries only Key and Bytes until List reads its summary.
type entry struct {
	Entry
	summarized bool
}

// Open opens (creating if needed) the archive at dir. It scans the
// directory by name only: every regular file named <key>.json becomes an
// entry sized by the file, ordered oldest-first by modification time, and
// no record is read. Open never fails on corrupt store content — only on
// an unusable directory.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{
		dir:        dir,
		maxEntries: opt.MaxEntries,
		maxBytes:   opt.MaxBytes,
		ll:         list.New(),
		byKey:      make(map[string]*list.Element),
		writing:    make(map[string]int),
	}
	if s.maxEntries <= 0 {
		s.maxEntries = DefaultMaxEntries
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	type found struct {
		e   *entry
		mod time.Time
	}
	var files []found
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || !de.Type().IsRegular() {
			continue
		}
		if _, err := runcache.ParseKey(key); err != nil {
			continue // temp files, foreign content
		}
		if info, err := de.Info(); err == nil {
			files = append(files, found{&entry{Entry: Entry{Key: key, Bytes: info.Size()}}, info.ModTime()})
		}
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		s.byKey[f.e.Key] = s.ll.PushBack(f.e)
		s.bytes += f.e.Bytes
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
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
// directly, so records written by other replicas into a shared directory
// are found even before a re-Open. A missing, corrupt or foreign-schema
// record is a miss (see read).
func (s *Store) Get(key runcache.Key) (*Record, bool) {
	rec, err := s.read(key.String())
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rec, true
}

// read reads the record filed under hexKey. A corrupt or truncated file,
// or one holding another key, is removed so it cannot shadow a future
// write. A record with a foreign schema is left on disk (it may belong to
// a newer replica).
func (s *Store) read(hexKey string) (*Record, error) {
	rec, err := readRecord(s.entryPath(hexKey))
	if err == nil && rec.Key != hexKey {
		err = fmt.Errorf("runstore: %s holds key %q", hexKey, rec.Key)
	}
	if err != nil {
		if !os.IsNotExist(err) && err != errBadSchema {
			s.mu.Lock()
			os.Remove(s.entryPath(hexKey))
			if el, ok := s.byKey[hexKey]; ok {
				s.removeLocked(el)
			}
			s.mu.Unlock()
		}
		return nil, err
	}
	return rec, nil
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
// keys overlap their disk I/O; only the in-memory entry update and garbage
// collection hold the lock, and both take constant time per entry.
// Storing an existing key replaces it.
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
	if el, ok := s.byKey[rec.Key]; ok {
		s.removeLocked(el)
	}
	s.byKey[rec.Key] = s.ll.PushBack(&entry{Entry: entryFor(rec, int64(len(raw))), summarized: true})
	s.bytes += int64(len(raw))
	s.gcLocked()
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

// removeLocked deletes one entry from the store's view (not its file).
func (s *Store) removeLocked(el *list.Element) {
	e := s.ll.Remove(el).(*entry)
	s.bytes -= e.Bytes
	delete(s.byKey, e.Key)
}

// gcLocked evicts oldest-first until both bounds hold.
func (s *Store) gcLocked() {
	for s.ll.Len() > 0 && (s.ll.Len() > s.maxEntries || s.bytes > s.maxBytes) {
		victim := s.ll.Front()
		if key := victim.Value.(*entry).Key; s.writing[key] == 0 {
			os.Remove(s.entryPath(key))
		}
		s.removeLocked(victim)
		s.evictions.Add(1)
	}
}

// List returns the archived runs, newest first. An entry Open found gets
// its summary from its record file the first time it is listed, read
// outside the mutex; one whose record does not read is left out of the
// listing and dropped from the store's view (read removes a corrupt file).
func (s *Store) List() []Entry {
	s.mu.Lock()
	var cold []*list.Element
	var keys []string
	for el := s.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); !e.summarized {
			cold, keys = append(cold, el), append(keys, e.Key)
		}
	}
	s.mu.Unlock()
	recs := make([]*Record, len(keys))
	for i, key := range keys {
		recs[i], _ = s.read(key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, el := range cold {
		e := el.Value.(*entry)
		if s.byKey[keys[i]] != el || e.summarized {
			continue // replaced, evicted or summarized meanwhile
		}
		if recs[i] == nil {
			s.removeLocked(el)
			continue
		}
		e.Entry, e.summarized = entryFor(recs[i], e.Bytes), true
	}
	out := make([]Entry, 0, s.ll.Len())
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*entry).Entry)
	}
	return out
}

// Len returns the archived run count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
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
	entries, bytes := s.ll.Len(), s.bytes
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

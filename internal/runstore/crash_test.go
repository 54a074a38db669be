package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/runcache"
)

// TestTornRecordEnumeration truncates a record file at every byte offset,
// next to a stray temp file from an interrupted write, and reopens the
// store each time. Get returns the whole record or a miss that removes the
// file, never a wrong record, and List never shows a torn record — whether
// List or Get is the first to read it.
func TestTornRecordEnumeration(t *testing.T) {
	dir := t.TempDir()
	key, cfg, st := simulate(t, nil)
	rec := &Record{Key: key.String(), Config: cfg, Sim: *st}
	if err := openStore(t, dir, Options{}).PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rec.Key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-4242"), raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	for off := 0; off <= len(raw); off++ {
		whole := off == len(raw)
		for _, listFirst := range []bool{true, false} {
			if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			s := openStore(t, dir, Options{})
			if listFirst {
				s.List()
			}
			got, ok := s.Get(key)
			switch {
			case whole && (!ok || !reflect.DeepEqual(got, rec)):
				t.Fatalf("offset %d (whole record): Get = %v, %v", off, ok, got)
			case !whole && ok:
				t.Fatalf("offset %d: torn record served: %+v", off, got)
			case !whole:
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("offset %d: torn record file kept", off)
				}
			}
			l := s.List()
			if whole && (len(l) != 1 || l[0].Key != rec.Key || l[0].Cycles != st.Cycles) ||
				!whole && len(l) != 0 {
				t.Fatalf("offset %d (list first %v): List = %+v", off, listFirst, l)
			}
			if s.Len() != len(l) {
				t.Fatalf("offset %d: Len = %d, List has %d", off, s.Len(), len(l))
			}
		}
	}
}

// TestOpenIgnoresLegacyIndex: a directory written by a store that kept an
// index.json beside its records opens and serves every record; the index
// file is neither an entry nor read.
func TestOpenIgnoresLegacyIndex(t *testing.T) {
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
	legacy, err := json.Marshal(map[string]any{"schema": Schema, "entries": s.List()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want the 2 records", s2.Len())
	}
	for _, k := range []runcache.Key{key1, key2} {
		if _, ok := s2.Get(k); !ok {
			t.Errorf("record %s not served", k)
		}
	}
	got := make(map[string]int)
	for _, e := range s2.List() {
		got[e.Key] = e.CacheBytes
	}
	if want := map[string]int{key1.String(): cfg.CacheBytes, key2.String(): 256}; !reflect.DeepEqual(got, want) {
		t.Errorf("List keys and cache sizes = %v, want %v", got, want)
	}
}

// TestListSkipsBadRecords: a reopened store lists only records that read
// back under their own key. A record filed under another key is removed,
// as Get removes it; a foreign-schema record is left out but kept on disk.
func TestListSkipsBadRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	good, cfg, st := simulate(t, nil)
	if err := s.Put(good, cfg, st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.entryPath(good.String()))
	if err != nil {
		t.Fatal(err)
	}
	misfiled := s.entryPath(runcache.KeyFor(cfg, [32]byte{1}).String())
	foreign := s.entryPath(runcache.KeyFor(cfg, [32]byte{2}).String())
	if err := os.WriteFile(misfiled, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign, []byte(`{"schema":"pipesim-runs/v999"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if l := s2.List(); len(l) != 1 || l[0].Key != good.String() || l[0].Cycles != st.Cycles {
		t.Fatalf("List = %+v, want only the good record", l)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1", s2.Len())
	}
	if _, err := os.Stat(misfiled); !os.IsNotExist(err) {
		t.Error("misfiled record kept")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign-schema record removed: %v", err)
	}
}

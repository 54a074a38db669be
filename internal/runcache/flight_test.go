package runcache

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/stats"
	"pipesim/internal/tracing"
)

// countingTier is a second tier that counts its calls and holds every
// Lookup until release is closed.
type countingTier struct {
	release chan struct{}
	lookups atomic.Int64
	stores  atomic.Int64
}

func (t *countingTier) Lookup(Key) (stats.Sim, bool) {
	t.lookups.Add(1)
	<-t.release
	return stats.Sim{}, false
}

func (t *countingTier) Store(Key, core.Config, *stats.Sim) { t.stores.Add(1) }

// TestRunSourceSingleflight sends eight concurrent misses on one key: one
// store read and one simulation serve all of them, the other seven get
// the result with source memory.
func TestRunSourceSingleflight(t *testing.T) {
	const callers = 8
	img := testImage(t)
	cfg := core.DefaultConfig()
	c := New(8)
	tier := &countingTier{release: make(chan struct{})}
	c.SetStore(tier)

	tr := tracing.New(1)
	var sims atomic.Int64
	tr.OnSpanEnd(func(s *tracing.Span) {
		if s.Name() == "simulate" {
			sims.Add(1)
		}
	})
	ctx, root := tr.StartTrace(context.Background(), "test", "singleflight", tracing.TraceContext{})
	defer root.End()

	type reply struct {
		st  *stats.Sim
		src Source
		err error
	}
	replies := make([]reply, callers)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, src, err := c.RunSource(ctx, cfg, img)
			replies[i] = reply{st, src, err}
		}()
	}
	// Every caller has missed the memory tier once all misses are
	// counted; only then may the leader's store read return, so the
	// other seven are certain to find its flight.
	for c.Stats().Misses < callers {
		runtime.Gosched()
	}
	close(tier.release)
	wg.Wait()

	if n := tier.lookups.Load(); n != 1 {
		t.Errorf("store Lookup called %d times, want 1", n)
	}
	if n := tier.stores.Load(); n != 1 {
		t.Errorf("store Store called %d times, want 1", n)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("%d simulations, want 1", n)
	}
	sources := map[Source]int{}
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		sources[r.src]++
		if !reflect.DeepEqual(r.st, replies[0].st) {
			t.Errorf("caller %d got different statistics", i)
		}
		for j := 0; j < i; j++ {
			if r.st == replies[j].st {
				t.Errorf("callers %d and %d share one result; each must get a private copy", j, i)
			}
		}
	}
	if want := (map[Source]int{SourceSimulated: 1, SourceMemory: callers - 1}); !reflect.DeepEqual(sources, want) {
		t.Errorf("sources %v, want %v", sources, want)
	}
}

// TestRunSourceSharesErrors: waiters on a failing flight get its error,
// and the failure is not cached.
func TestRunSourceSharesErrors(t *testing.T) {
	const callers = 4
	img := testImage(t)
	cfg := core.DefaultConfig()
	cfg.MaxCycles = 3 // aborts long before completion
	c := New(8)
	tier := &countingTier{release: make(chan struct{})}
	c.SetStore(tier)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = c.RunSource(context.Background(), cfg, img)
		}()
	}
	for c.Stats().Misses < callers {
		runtime.Gosched()
	}
	close(tier.release)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: no error from an aborted run", i)
		}
	}
	if c.Len() != 0 || tier.stores.Load() != 0 {
		t.Errorf("failed run was cached (memory %d, store writes %d)", c.Len(), tier.stores.Load())
	}
}

package main

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func testPlan(t *testing.T, seed uint64) (*smPlan, *rand.Rand) {
	t.Helper()
	ms, err := testGolden(t).livermoreMachines()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p, err := newPlan(ms, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p, rng
}

func TestPlanSameSeedSameSequence(t *testing.T) {
	p1, r1 := testPlan(t, 7)
	p2, r2 := testPlan(t, 7)
	if !reflect.DeepEqual(p1.clients, p2.clients) {
		t.Fatal("same seed dealt different keys")
	}
	for round := 0; round < 3; round++ {
		for c := range p1.clients {
			if !reflect.DeepEqual(p1.sequence(r1, c), p2.sequence(r2, c)) {
				t.Fatalf("round %d client %d: same seed, different sequence", round, c)
			}
		}
	}
	p3, r3 := testPlan(t, 8)
	if reflect.DeepEqual(p1.clients, p3.clients) && reflect.DeepEqual(p1.sequence(r1, 0), p3.sequence(r3, 0)) {
		t.Error("seeds 7 and 8 gave identical inputs")
	}
}

func TestPlanClientsDisjoint(t *testing.T) {
	p, _ := testPlan(t, 3)
	owner := map[int]int{}
	for c, cl := range p.clients {
		if len(cl.store) != smStorePerClient || len(cl.cold) != smColdPerClient {
			t.Errorf("client %d: %d store and %d cold keys", c, len(cl.store), len(cl.cold))
		}
		for _, k := range append(append([]int(nil), cl.store...), cl.cold...) {
			if o, dup := owner[k]; dup {
				t.Errorf("key %d dealt to clients %d and %d", k, o, c)
			}
			owner[k] = c
		}
	}
	bodies := map[string]bool{}
	for _, k := range p.keys {
		if bodies[string(k.body)] {
			t.Errorf("two keys share a request body: %s", k.body)
		}
		bodies[string(k.body)] = true
	}
}

// TestSequenceSources checks that a round's expected sources follow from
// the plan alone: each key's first touch (in the store or cold phase) is
// its kind, every later one memory, and the totals match the daemon
// counters the round must produce.
func TestSequenceSources(t *testing.T) {
	p, rng := testPlan(t, 11)
	counts := map[string]uint64{}
	for c, cl := range p.clients {
		kind := map[int]string{}
		for _, k := range cl.store {
			kind[k] = srcStore
		}
		for _, k := range cl.cold {
			kind[k] = srcSimulated
		}
		phases := p.sequence(rng, c)
		if len(phases[phaseStore]) != smStorePerClient || len(phases[phaseCold]) != smColdPerClient ||
			len(phases[phaseMemory]) != smRepeatsPerClient {
			t.Fatalf("client %d: phases of %d, %d and %d requests", c,
				len(phases[phaseStore]), len(phases[phaseCold]), len(phases[phaseMemory]))
		}
		var seq []smRequest
		for _, ph := range phases {
			seq = append(seq, ph...)
		}
		seen := map[int]bool{}
		for i, q := range seq {
			want, own := kind[q.key]
			if !own {
				t.Fatalf("client %d request %d uses another client's key %d", c, i, q.key)
			}
			if seen[q.key] {
				want = srcMemory
			}
			seen[q.key] = true
			if q.want != want {
				t.Errorf("client %d request %d: want %q, sequence says %q", c, i, want, q.want)
			}
			counts[q.want]++
		}
		if len(seen) != len(kind) {
			t.Errorf("client %d touched %d of its %d keys", c, len(seen), len(kind))
		}
	}
	exp := p.expectedCounts()
	if counts[srcMemory] != exp["runcache.hits"] || counts[srcStore] != exp["runstore.hits"] ||
		counts[srcSimulated] != exp["runstore.writes"] ||
		counts[srcStore]+counts[srcSimulated] != exp["runcache.misses"] {
		t.Errorf("sequence sources %v disagree with expected daemon counters %v", counts, exp)
	}
}

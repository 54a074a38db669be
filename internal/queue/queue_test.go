package queue

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew[T any](t *testing.T, capacity int) *Queue[T] {
	t.Helper()
	q, err := New[T](capacity)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		if q, err := New[int](c); err == nil || q != nil {
			t.Errorf("New(%d) = %v, %v; want nil, error", c, q, err)
		}
	}
}

func TestPushPopFIFO(t *testing.T) {
	q := mustNew[int](t, 4)
	for i := 1; i <= 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed on non-full queue", i)
		}
	}
	if !q.Full() {
		t.Fatal("queue should be full after 4 pushes")
	}
	if q.Push(5) {
		t.Fatal("Push succeeded on full queue")
	}
	for i := 1; i <= 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on empty queue")
	}
}

func TestWrapAround(t *testing.T) {
	q := mustNew[int](t, 3)
	// Fill, drain partially, refill repeatedly to force head wrapping.
	next, expect := 0, 0
	for round := 0; round < 20; round++ {
		for !q.Full() {
			q.MustPush(next)
			next++
		}
		for k := 0; k < 2; k++ {
			if v := q.MustPop(); v != expect {
				t.Fatalf("round %d: pop = %d, want %d", round, v, expect)
			}
			expect++
		}
	}
}

func TestPeekAndAt(t *testing.T) {
	q := mustNew[string](t, 4)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
	q.MustPush("a")
	q.MustPush("b")
	q.MustPush("c")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v; want a,true", v, ok)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if v, ok := q.At(i); !ok || v != w {
			t.Fatalf("At(%d) = %q,%v; want %q,true", i, v, ok, w)
		}
	}
	if _, ok := q.At(3); ok {
		t.Fatal("At(3) beyond length reported ok")
	}
	if _, ok := q.At(-1); ok {
		t.Fatal("At(-1) reported ok")
	}
	// Peek must not consume.
	if q.Len() != 3 {
		t.Fatalf("Len = %d after peeks, want 3", q.Len())
	}
}

func TestClear(t *testing.T) {
	q := mustNew[int](t, 2)
	q.MustPush(1)
	q.MustPush(2)
	q.Clear()
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("queue not empty after Clear")
	}
	q.MustPush(9)
	if v := q.MustPop(); v != 9 {
		t.Fatalf("pop after clear = %d, want 9", v)
	}
}

func TestMustPopPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPop on empty queue did not panic")
		}
	}()
	mustNew[int](t, 1).MustPop()
}

func TestMustPushPanicsOnFull(t *testing.T) {
	q := mustNew[int](t, 1)
	q.MustPush(1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustPush on full queue did not panic")
		}
	}()
	q.MustPush(2)
}

func TestSlice(t *testing.T) {
	q := mustNew[int](t, 4)
	q.MustPush(1)
	q.MustPush(2)
	q.MustPop()
	q.MustPush(3)
	q.MustPush(4)
	q.MustPush(5) // forces wrap with capacity 4
	got := q.Slice()
	want := []int{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Slice len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestQuickFIFOOrder drives a queue with a random push/pop sequence and
// checks it against a reference slice implementation.
func TestQuickFIFOOrder(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		q, err := New[int](capacity)
		if err != nil {
			return false
		}
		var ref []int
		next := 0
		for op := 0; op < 500; op++ {
			if rng.Intn(2) == 0 {
				pushed := q.Push(next)
				if pushed != (len(ref) < capacity) {
					return false
				}
				if pushed {
					ref = append(ref, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			}
			if q.Len() != len(ref) || q.Empty() != (len(ref) == 0) || q.Full() != (len(ref) == capacity) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMoveFromMatchesPushPop checks the bulk move against the per-element
// loop it replaces, from every head offset of both rings and every fill.
func TestMoveFromMatchesPushPop(t *testing.T) {
	const dstCap, srcCap = 4, 6
	for dstHead := 0; dstHead < dstCap; dstHead++ {
		for srcHead := 0; srcHead < srcCap; srcHead++ {
			for dstLen := 0; dstLen <= dstCap; dstLen++ {
				for srcLen := 0; srcLen <= srcCap; srcLen++ {
					build := func() (dst, src *Queue[int]) {
						dst, src = mustNew[int](t, dstCap), mustNew[int](t, srcCap)
						for i := 0; i < dstHead; i++ { // rotate the heads
							dst.MustPush(0)
							dst.MustPop()
						}
						for i := 0; i < srcHead; i++ {
							src.MustPush(0)
							src.MustPop()
						}
						for i := 0; i < dstLen; i++ {
							dst.MustPush(100 + i)
						}
						for i := 0; i < srcLen; i++ {
							src.MustPush(200 + i)
						}
						return dst, src
					}
					gotDst, gotSrc := build()
					gotDst.MoveFrom(gotSrc)
					wantDst, wantSrc := build()
					for !wantDst.Full() && !wantSrc.Empty() {
						wantDst.MustPush(wantSrc.MustPop())
					}
					if fmt.Sprint(gotDst.Slice(), gotSrc.Slice()) != fmt.Sprint(wantDst.Slice(), wantSrc.Slice()) {
						t.Fatalf("heads %d/%d lens %d/%d: MoveFrom gave %v %v, want %v %v",
							dstHead, srcHead, dstLen, srcLen,
							gotDst.Slice(), gotSrc.Slice(), wantDst.Slice(), wantSrc.Slice())
					}
				}
			}
		}
	}
}

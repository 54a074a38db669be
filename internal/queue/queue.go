// Package queue provides the fixed-capacity FIFO ring buffer used for every
// hardware queue in the simulator: the architectural Load Address, Load
// Data, Store Address and Store Data queues, the Instruction Queue and
// Instruction Queue Buffer of the PIPE cache, and internal bus queues.
//
// Queues are deliberately bounded: a full queue is a structural hazard that
// stalls the producer, exactly as in hardware. All operations are O(1).
package queue

import "fmt"

// Queue is a bounded FIFO of values of type T backed by a ring buffer.
// The zero value is unusable; construct with New.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// New returns an empty queue with the given capacity. It returns an error
// if capacity is not positive, since a zero-capacity hardware queue cannot
// exist; constructors propagate the error instead of crashing the caller.
func New[T any](capacity int) (*Queue[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("queue: capacity %d must be positive", capacity)
	}
	return &Queue[T]{buf: make([]T, capacity)}, nil
}

// Cap returns the queue's fixed capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.n == len(q.buf) }

// wrap reduces an index in [0, 2*cap) onto the ring. Every index the queue
// computes is head+k with head < cap and k <= cap, so one conditional
// subtraction replaces a hardware divide on the hot path.
func (q *Queue[T]) wrap(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Push appends v at the tail. It reports false (and leaves the queue
// unchanged) when the queue is full.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.buf[q.wrap(q.head+q.n)] = v
	q.n++
	return true
}

// MustPush appends v and panics if the queue is full. Use it where the
// caller has already checked Full as part of the stall logic, so overflow
// indicates a simulator bug.
func (q *Queue[T]) MustPush(v T) {
	if !q.Push(v) {
		panic("queue: push to full queue")
	}
}

// Peek returns the head element without removing it. It reports false when
// the queue is empty.
func (q *Queue[T]) Peek() (T, bool) {
	if q.Empty() {
		var zero T
		return zero, false
	}
	return q.buf[q.head], true
}

// At returns the i-th element from the head (At(0) == Peek) without removing
// it. It reports false when i is out of range. Fetch control logic uses At
// to scan queued instruction words for branches.
func (q *Queue[T]) At(i int) (T, bool) {
	if i < 0 || i >= q.n {
		var zero T
		return zero, false
	}
	return q.buf[q.wrap(q.head+i)], true
}

// Pop removes and returns the head element. It reports false when the queue
// is empty.
func (q *Queue[T]) Pop() (T, bool) {
	if q.Empty() {
		var zero T
		return zero, false
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release any references
	q.head = q.wrap(q.head + 1)
	q.n--
	return v, true
}

// MustPop removes and returns the head element and panics if the queue is
// empty.
func (q *Queue[T]) MustPop() T {
	// Written out rather than via Pop, which keeps it within the
	// compiler's inlining budget on the simulator's hot paths.
	if q.n == 0 {
		panic("queue: pop from empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release any references
	q.head = q.wrap(q.head + 1)
	q.n--
	return v
}

// MoveFrom moves elements from the head of src to the tail of q, oldest
// first, until q is full or src is empty. It is the bulk form of
// q.MustPush(src.MustPop()) repeated.
func (q *Queue[T]) MoveFrom(src *Queue[T]) {
	n := min(len(q.buf)-q.n, src.n)
	var zero T
	for i := 0; i < n; i++ {
		q.buf[q.wrap(q.head+q.n)] = src.buf[src.head]
		src.buf[src.head] = zero // release any references
		src.head = src.wrap(src.head + 1)
		q.n++
	}
	src.n -= n
}

// Clear removes all elements.
func (q *Queue[T]) Clear() {
	var zero T
	for i := range q.buf {
		q.buf[i] = zero
	}
	q.head = 0
	q.n = 0
}

// Slice returns the queued elements in FIFO order in a freshly allocated
// slice. Intended for tests and diagnostics.
func (q *Queue[T]) Slice() []T {
	out := make([]T, q.n)
	for i := 0; i < q.n; i++ {
		out[i] = q.buf[q.wrap(q.head+i)]
	}
	return out
}

// Package queue provides the bounded FIFO substrate used throughout the
// simulated device: link request/response queues, crossbar queues and
// vault request queues (paper §V-B: "a request queue depth of 64 slots and
// a logic-layer crossbar queue depth of 128 slots").
//
// Queues collect occupancy statistics so simulations can report queueing
// pressure — the mechanism behind the 4Link/8Link divergence in the
// paper's Figures 5-7.
package queue

import (
	"errors"
	"fmt"
)

// ErrFull is returned by Push when the queue is at capacity; it is the
// queue-level analogue of the simulator's HMC_STALL condition.
var ErrFull = errors.New("queue: full")

// Stats aggregates the lifetime behaviour of one queue.
type Stats struct {
	// Pushes and Pops count successful operations.
	Pushes, Pops uint64
	// Stalls counts Push attempts rejected because the queue was full.
	Stalls uint64
	// MaxOccupancy is the high-water mark of queue length.
	MaxOccupancy int
	// occupancySum is the queue length summed over the samples.
	occupancySum uint64
	samples      uint64
}

// AvgOccupancy returns the mean queue length over the samples, or zero
// if none were taken.
func (s Stats) AvgOccupancy() float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(s.occupancySum) / float64(s.samples)
}

// Samples returns how many occupancy samples the statistics cover: the
// value of the queue's sample counter.
func (s Stats) Samples() uint64 { return s.samples }

// Queue is a bounded FIFO over elements of type T. It is not safe for
// concurrent use; the simulator clocks queues from a single goroutine.
//
// The ring buffer behind a queue is materialized lazily: Init records
// only the logical capacity, and Push grows the buffer geometrically
// (starting at minRing slots) up to that capacity as occupancy actually
// demands it. A simulated device carries dozens of deep queues whose
// architected depths (64-128 slots) are rarely approached — a
// many-thousand-session server would otherwise pay tens of kilobytes
// per session for empty ring slots. Stall/occupancy semantics are
// unchanged: Full, ErrFull and every statistic depend only on the
// logical capacity, never on how much of the ring is materialized.
//
// Occupancy is a time integral over an external sample counter that the
// owner advances (the device bumps its cycle count once at the end of
// every cycle). Each sample counts the length the queue holds when the
// counter moves, so an element pushed at counter value a and popped at b
// is counted b − a times, and one still queued now − a times. Push
// subtracts the counter and Pop adds it, and Stats adds Len × counter
// for the elements still queued: the result equals taking a sample at
// every bump, at no cost per sample.
type Queue[T any] struct {
	buf      []T
	head     int
	count    int
	capacity int

	pushes, stalls uint64
	maxOccupancy   int
	// occupancy is the counter summed over Pops minus the counter summed
	// over Pushes, modulo 2^64; clock is the sample counter, never nil.
	occupancy uint64
	clock     *uint64
}

// stopped is the sample counter of a queue whose owner supplies none: it
// never advances, so such a queue reports no occupancy samples.
var stopped uint64

// minRing is the smallest materialized ring; growth doubles from here.
const minRing = 2

// New returns a queue with the given capacity and no sample counter. It
// panics if capacity is not positive, which always indicates a
// configuration error upstream.
func New[T any](capacity int) *Queue[T] {
	q := new(Queue[T])
	q.Init(capacity, nil)
	return q
}

// Init readies a zero-value queue with the given logical capacity; the
// ring buffer materializes on demand. It lets owners embed queues by
// value instead of holding *Queue indirections. clock is the sample
// counter the occupancy statistics integrate over; nil means a counter
// that never advances. It panics if capacity is not positive.
func (q *Queue[T]) Init(capacity int, clock *uint64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: invalid capacity %d", capacity))
	}
	if clock == nil {
		clock = &stopped
	}
	*q = Queue[T]{capacity: capacity, clock: clock}
}

// Cap returns the logical queue capacity.
func (q *Queue[T]) Cap() int { return q.capacity }

// Materialized returns how many ring slots are currently allocated —
// at most Cap, and zero until the first Push.
func (q *Queue[T]) Materialized() int { return len(q.buf) }

// Len returns the current number of queued elements.
func (q *Queue[T]) Len() int { return q.count }

// Empty reports whether the queue holds no elements.
func (q *Queue[T]) Empty() bool { return q.count == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.count == q.capacity }

// grow materializes a larger ring: double the current size (starting at
// minRing), capped at the logical capacity, with the occupied span
// copied to the front so the slots beyond it stay zero (the invariant
// Reset's O(Len) clear relies on).
func (q *Queue[T]) grow() {
	n := len(q.buf) * 2
	if n < minRing {
		n = minRing
	}
	if n > q.capacity {
		n = q.capacity
	}
	buf := make([]T, n)
	for i := 0; i < q.count; i++ {
		j := q.head + i
		if j >= len(q.buf) {
			j -= len(q.buf)
		}
		buf[i] = q.buf[j]
	}
	q.buf = buf
	q.head = 0
}

// Push appends v to the tail. A full queue returns ErrFull and records a
// stall.
func (q *Queue[T]) Push(v T) error {
	if q.Full() {
		q.stalls++
		return ErrFull
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	// head < len and count <= len, so one compare-subtract wraps the
	// insertion index — cheaper than the general modulo's division on
	// this every-cycle path.
	i := q.head + q.count
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.occupancy -= *q.clock
	q.count++
	q.pushes++
	if q.count > q.maxOccupancy {
		q.maxOccupancy = q.count
	}
	return nil
}

// Pop removes and returns the head element; ok is false on an empty
// queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.occupancy += *q.clock
	q.count--
	return v, true
}

// Peek returns the head element without removing it; ok is false on an
// empty queue.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Stats returns a copy of the queue's lifetime statistics, with the
// occupancy integral closed at the counter's current value. Pops is
// derived: every element pushed and no longer queued was popped.
func (q *Queue[T]) Stats() Stats {
	now := *q.clock
	return Stats{
		Pushes:       q.pushes,
		Pops:         q.pushes - uint64(q.count),
		Stalls:       q.stalls,
		MaxOccupancy: q.maxOccupancy,
		occupancySum: q.occupancy + uint64(q.count)*now,
		samples:      now,
	}
}

// Reset empties the queue and clears its statistics, keeping the ring
// and the sample counter. Only the occupied slots are zeroed: Pop zeroes
// each slot it vacates, so everything outside [head, head+count) is zero
// already — for a pointer-element queue that turns Reset from a
// write-barrier walk over the whole ring into O(Len).
func (q *Queue[T]) Reset() {
	var zero T
	for i, j := 0, q.head; i < q.count; i++ {
		q.buf[j] = zero
		if j++; j == len(q.buf) {
			j = 0
		}
	}
	*q = Queue[T]{buf: q.buf, capacity: q.capacity, clock: q.clock}
}

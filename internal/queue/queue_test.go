package queue

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](4)
	for i := 1; i <= 4; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop on empty queue succeeded")
	}
}

func TestFullAndStallAccounting(t *testing.T) {
	q := New[string](2)
	_ = q.Push("a")
	_ = q.Push("b")
	if !q.Full() {
		t.Error("queue not full at capacity")
	}
	if err := q.Push("c"); !errors.Is(err, ErrFull) {
		t.Errorf("push on full queue: %v", err)
	}
	if got := q.Stats().Stalls; got != 1 {
		t.Errorf("stalls = %d, want 1", got)
	}
	if got := q.Stats().Pushes; got != 2 {
		t.Errorf("pushes = %d, want 2", got)
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := q.Push(round*3 + i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != round*3+i {
				t.Fatalf("round %d: got %d, %v", round, v, ok)
			}
		}
	}
}

func TestPeek(t *testing.T) {
	q := New[int](2)
	if _, ok := q.Peek(); ok {
		t.Error("peek on empty queue succeeded")
	}
	_ = q.Push(9)
	v, ok := q.Peek()
	if !ok || v != 9 {
		t.Fatalf("peek: %d, %v", v, ok)
	}
	if q.Len() != 1 {
		t.Error("peek consumed the element")
	}
}

// TestOccupancyStats: each bump of the sample counter samples the length
// the queue holds at that moment.
func TestOccupancyStats(t *testing.T) {
	var clock uint64
	var q Queue[int]
	q.Init(8, &clock)
	_ = q.Push(1)
	clock++ // occupancy 1
	_ = q.Push(2)
	_ = q.Push(3)
	clock++ // occupancy 3
	st := q.Stats()
	if st.MaxOccupancy != 3 {
		t.Errorf("max occupancy = %d, want 3", st.MaxOccupancy)
	}
	if got := st.AvgOccupancy(); got != 2.0 {
		t.Errorf("avg occupancy = %v, want 2.0", got)
	}
	if st.Samples() != 2 {
		t.Errorf("samples = %d, want 2", st.Samples())
	}
}

// TestReset: Reset empties the queue and clears its statistics, and the
// queue stays on its sample counter.
func TestReset(t *testing.T) {
	var clock uint64
	var q Queue[int]
	q.Init(2, &clock)
	_ = q.Push(1)
	clock++
	q.Reset()
	if st := q.Stats(); !q.Empty() || st.Pushes != 0 || st.Pops != 0 || st.MaxOccupancy != 0 || st.AvgOccupancy() != 0 {
		t.Errorf("Reset did not clear state: %+v", st)
	}
	clock = 0 // the owner rewinds its counter, as the device's Reset does
	if q.Stats().Samples() != 0 {
		t.Errorf("samples = %d after rewinding the counter, want 0", q.Stats().Samples())
	}
	_ = q.Push(2)
	clock++
	if st := q.Stats(); st.Samples() != 1 || st.AvgOccupancy() != 1 {
		t.Errorf("after Reset the queue is off its counter: %+v", st)
	}
}

// TestOccupancyIntegralQuick drives random steps against a queue on a
// sample counter: pushes and pops on both sides of a counter bump, idle
// runs of bumps, and Resets, some of which also rewind the counter as
// the device's Reset does. The test keeps its own reference — Len summed
// at every bump, the high-water mark, the push and pop counts — and
// after every step Stats must match it exactly.
func TestOccupancyIntegralQuick(t *testing.T) {
	type step struct {
		Before, After   uint8 // one op per bit, low bit first: 1 pushes, 0 pops
		NBefore, NAfter uint8 // ops taken from Before and After, mod 8
		Idle            uint8 // extra bumps after the step, mod 4
		Reset           uint8 // Reset first when mod 16 is 0; bit 4 rewinds the counter
	}
	f := func(steps []step) bool {
		var clock uint64
		var q Queue[int]
		q.Init(6, &clock)
		var sum, pushes, pops uint64
		maxOcc := 0
		ops := func(bits, n uint8) {
			for i := uint8(0); i < n%8; i++ {
				if bits>>i&1 == 0 {
					if _, ok := q.Pop(); ok {
						pops++
					}
				} else if q.Push(int(i)) == nil {
					pushes++
					maxOcc = max(maxOcc, q.Len())
				}
			}
		}
		bump := func() {
			clock++
			sum += uint64(q.Len())
		}
		for _, s := range steps {
			if s.Reset%16 == 0 {
				q.Reset()
				sum, pushes, pops, maxOcc = 0, 0, 0, 0
				if s.Reset&16 != 0 {
					clock = 0
				}
			}
			ops(s.Before, s.NBefore)
			bump()
			ops(s.After, s.NAfter)
			for i := uint8(0); i < s.Idle%4; i++ {
				bump()
			}
			var avg float64
			if clock != 0 {
				avg = float64(sum) / float64(clock)
			}
			st := q.Stats()
			if st.AvgOccupancy() != avg || st.Samples() != clock || st.MaxOccupancy != maxOcc ||
				st.Pushes != pushes || st.Pops != pops {
				t.Logf("stats %+v avg %v; want sum %d samples %d max %d pushes %d pops %d avg %v",
					st, st.AvgOccupancy(), sum, clock, maxOcc, pushes, pops, avg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A queue without a counter takes no samples.
	q := New[int](2)
	_ = q.Push(1)
	if st := q.Stats(); st.Samples() != 0 || st.AvgOccupancy() != 0 {
		t.Errorf("queue without a counter reports %+v", st)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[int](0)
}

// TestFIFOInvariantQuick drives a random push/pop sequence against a model
// slice and checks the queue preserves order and conservation.
func TestFIFOInvariantQuick(t *testing.T) {
	f := func(ops []bool, vals []uint16) bool {
		q := New[uint16](16)
		var model []uint16
		vi := 0
		for _, isPush := range ops {
			if isPush {
				v := uint16(0)
				if vi < len(vals) {
					v = vals[vi]
					vi++
				}
				err := q.Push(v)
				if len(model) < 16 {
					if err != nil {
						return false
					}
					model = append(model, v)
				} else if !errors.Is(err, ErrFull) {
					return false
				}
			} else {
				v, ok := q.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New[uint64](64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Push(uint64(i))
		q.Pop()
	}
}

// TestSampleBaseReconstruction: with a sample counter attached, the
// integral that Push and Pop keep must yield statistics bit-identical to
// sampling the length at every bump of the counter.
func TestSampleBaseReconstruction(t *testing.T) {
	var cycles uint64
	var q Queue[int]
	q.Init(4, &cycles)
	var sum, samples, pushes, pops uint64
	maxOcc := 0

	step := func(push, pop int) {
		for i := 0; i < push; i++ {
			if q.Push(i) == nil {
				pushes++
				maxOcc = max(maxOcc, q.Len())
			}
		}
		for i := 0; i < pop; i++ {
			if _, ok := q.Pop(); ok {
				pops++
			}
		}
		sum += uint64(q.Len()) // the sample taken at the end of the cycle
		samples++
		cycles++
	}

	// Idle cycles, a burst, a drain, more idle.
	step(0, 0)
	step(0, 0)
	step(3, 0)
	step(0, 1)
	step(1, 3)
	for i := 0; i < 5; i++ {
		step(0, 0)
	}

	st := q.Stats()
	if st.Samples() != samples {
		t.Errorf("samples: got %d, want %d", st.Samples(), samples)
	}
	if want := float64(sum) / float64(samples); st.AvgOccupancy() != want {
		t.Errorf("avg occupancy: got %v, want %v", st.AvgOccupancy(), want)
	}
	if st.MaxOccupancy != maxOcc || st.Pushes != pushes || st.Pops != pops {
		t.Errorf("counter mismatch: %+v, want max %d pushes %d pops %d", st, maxOcc, pushes, pops)
	}
}

// TestInitValueQueue checks that a queue embedded by value and readied
// with Init behaves identically to one built with New.
func TestInitValueQueue(t *testing.T) {
	var q Queue[int]
	q.Init(3, nil)
	if q.Cap() != 3 || !q.Empty() {
		t.Fatalf("Init: cap=%d empty=%v", q.Cap(), q.Empty())
	}
	for i := 1; i <= 3; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(4); !errors.Is(err, ErrFull) {
		t.Fatalf("push on full: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d: got %d, %v", i, v, ok)
		}
	}
}

// TestLazyMaterialization pins the heap-diet contract: Init allocates no
// ring, the buffer grows geometrically under pressure, wrap order
// survives growth, and Full/ErrFull depend only on the logical capacity.
func TestLazyMaterialization(t *testing.T) {
	var q Queue[int]
	q.Init(100, nil)
	if q.Materialized() != 0 {
		t.Fatalf("materialized %d before first push, want 0", q.Materialized())
	}
	if q.Cap() != 100 {
		t.Fatalf("cap %d, want 100", q.Cap())
	}
	// Build wrap state: fill a small ring, pop a few, keep pushing so
	// the occupied span straddles the ring boundary when growth copies.
	for i := 0; i < 8; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if q.Materialized() != 8 {
		t.Fatalf("materialized %d after 8 pushes, want 8", q.Materialized())
	}
	for i := 0; i < 5; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d: got %d, %v", i, v, ok)
		}
	}
	next := 8
	for q.Len() < 100 {
		if err := q.Push(next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if err := q.Push(next); !errors.Is(err, ErrFull) {
		t.Fatalf("push on logically full queue: %v", err)
	}
	if got := q.Materialized(); got < 100 || got > 128 {
		t.Fatalf("materialized %d at full occupancy, want [100,128]", got)
	}
	for want := 5; want < next; want++ {
		if v, ok := q.Pop(); !ok || v != want {
			t.Fatalf("pop: got %d, %v, want %d", v, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	if st := q.Stats(); st.Stalls != 1 || st.MaxOccupancy != 100 {
		t.Fatalf("stats %+v, want 1 stall, max occupancy 100", st)
	}
}

// TestGrowKeepsTailZero checks growth preserves the Reset invariant:
// slots outside the occupied span stay zero after the copy.
func TestGrowKeepsTailZero(t *testing.T) {
	var q Queue[*int]
	q.Init(64, nil)
	v := new(int)
	for i := 0; i < 40; i++ {
		if err := q.Push(v); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			q.Pop()
		}
	}
	n := q.Len()
	for i := 0; i < n; i++ {
		q.Pop()
	}
	q.Reset()
	for i := 0; i < q.Materialized(); i++ {
		if err := q.Push(nil); err != nil {
			t.Fatal(err)
		}
	}
	// If Reset's O(Len) clear missed a stale pointer the ring would
	// still reference v; popping everything must yield only nils.
	for {
		p, ok := q.Pop()
		if !ok {
			break
		}
		if p != nil {
			t.Fatal("stale pointer survived Reset after growth")
		}
	}
}

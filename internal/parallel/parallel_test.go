package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	t.Parallel()
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honoured")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("defaulted worker count must be positive")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEach(nil, n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestMapOrderedCollection(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4, 16} {
		got, err := Map(nil, 257, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	t.Parallel()
	// Sequential reference: the loop stops at index 3.
	fail := func(i int) error {
		if i == 3 || i == 7 || i == 900 {
			return fmt.Errorf("unit %d failed", i)
		}
		return nil
	}
	want := ForEach(nil, 1000, 1, fail)
	if want == nil || want.Error() != "unit 3 failed" {
		t.Fatalf("sequential reference error = %v", want)
	}
	for _, workers := range []int{2, 8, 32} {
		got := ForEach(nil, 1000, workers, fail)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("workers=%d: error %v, want %v", workers, got, want)
		}
	}
}

func TestContextCancellationStopsDispatch(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 100000, 4, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("cancellation did not stop dispatch (%d units ran)", n)
	}
}

func TestFnErrorOutranksCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEach(ctx, 1000, 4, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the unit error", err)
	}
}

func TestForEachChunkCoversRange(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{1, 2, 7, 100, 1023} {
			covered := make([]atomic.Int32, n)
			err := ForEachChunk(nil, n, workers, func(lo, hi int) error {
				if lo < 0 || hi > n || lo >= hi {
					return fmt.Errorf("bad chunk [%d, %d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range covered {
				if covered[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times",
						workers, n, i, covered[i].Load())
				}
			}
		}
	}
}

func TestEmptyRangeIsNoOp(t *testing.T) {
	t.Parallel()
	if err := ForEach(nil, 0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachChunk(nil, -3, 4, func(int, int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// catch runs f and returns the value it panicked with, or nil.
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestWorkerPanicReachesCaller pins that a panic inside a work unit never
// escapes on a worker goroutine (which would kill the process): the caller
// re-panics with the original value of the lowest panicking index, so a
// recover on the calling goroutine works exactly as in the sequential loop.
// workers = 4 is forced so the fan-out runs even on a single CPU.
func TestWorkerPanicReachesCaller(t *testing.T) {
	t.Parallel()
	const workers = 4
	boom := func(i int) error {
		if i >= 10 {
			panic(fmt.Sprintf("unit %d panicked", i))
		}
		return nil
	}
	want := catch(func() { _ = ForEach(nil, 1000, 1, boom) })
	if want != "unit 10 panicked" {
		t.Fatalf("sequential reference panic = %v", want)
	}
	if got := catch(func() { _ = ForEach(nil, 1000, workers, boom) }); got != want {
		t.Fatalf("ForEach: panic %v, want %v", got, want)
	}
	got := catch(func() {
		_ = ForEachChunk(nil, 1000, workers, func(lo, hi int) error {
			if lo > 0 {
				panic(lo)
			}
			return nil
		})
	})
	if _, ok := got.(int); !ok || got == 0 {
		t.Fatalf("ForEachChunk: panic %v, want the lowest panicking chunk start", got)
	}
	if got := catch(func() {
		_, _ = Map(nil, 100, workers, func(i int) (int, error) {
			if i == 42 {
				panic(i)
			}
			return i, nil
		})
	}); got != 42 {
		t.Fatalf("Map: panic %v, want 42", got)
	}
}

// TestLowerIndexErrorOutranksPanic: errors and panics share one ranking,
// so an error at a lower index than every panic is returned (the
// sequential loop would stop there) and nothing panics.
func TestLowerIndexErrorOutranksPanic(t *testing.T) {
	t.Parallel()
	fn := func(i int) error {
		switch {
		case i == 3:
			return fmt.Errorf("unit %d failed", i)
		case i >= 5:
			panic(i)
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		var err error
		if v := catch(func() { err = ForEach(nil, 100, workers, fn) }); v != nil {
			t.Fatalf("workers=%d: panicked with %v, want the index-3 error", workers, v)
		}
		if err == nil || err.Error() != "unit 3 failed" {
			t.Fatalf("workers=%d: error %v, want unit 3 failed", workers, err)
		}
	}
}

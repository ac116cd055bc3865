// Package parallel is the bounded worker-pool primitive behind the
// compile-time pipeline: task-graph derivation, the schedule-priority
// portfolio and the cross-executor fuzz harness all fan their independent
// work units out through it.
//
// The package is deliberately small and deterministic-by-construction:
//
//   - Results are collected positionally (each work unit owns slot i of a
//     caller-allocated slice), so the assembled output never depends on
//     goroutine interleaving.
//   - Errors are ranked by work-unit index and the lowest-index error is
//     returned — exactly the error a sequential left-to-right loop would
//     have stopped at. A panicking work unit ranks like an error: the
//     worker recovers it and the caller's goroutine re-panics with the
//     original value, so no panic escapes on a worker goroutine and a
//     recover in the caller works at any worker count.
//   - The concurrency knob is injectable everywhere (Options-style Workers
//     fields across the repository default to 0 = GOMAXPROCS); tests force
//     workers = 1 to obtain the reference sequential execution and assert
//     byte-identical outputs against workers = N.
//
// With workers <= 1 all helpers run inline on the calling goroutine — no
// goroutines, no channels — so the sequential path stays allocation-free
// and trivially race-free.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a concurrency knob: values >= 1 are used as given; zero
// and negative values select runtime.GOMAXPROCS(0).
func Workers(w int) int {
	if w >= 1 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n) using at most workers
// goroutines (0 = GOMAXPROCS). Work units must be independent; each should
// write its result into a caller-owned slot indexed by i so collection is
// deterministic.
//
// If any fn returns an error, ForEach returns the error with the lowest
// index — the same error a sequential loop would return — after all
// in-flight units finish; units not yet started are skipped. If the
// lowest failing unit panicked instead, ForEach re-panics on the calling
// goroutine with the recovered value, after the same wait. A nil ctx
// never cancels; with a cancelled ctx, ForEach stops dispatching and
// returns ctx.Err() unless an fn error outranks it.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		panicked bool
		panicVal any
	)
	record := func(i int, err error, isPanic bool, v any) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr, panicked, panicVal = i, err, isPanic, v
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			i := -1
			defer func() {
				if v := recover(); v != nil {
					record(i, nil, true, v)
				}
			}()
			for {
				if stop.Load() || (ctx != nil && ctx.Err() != nil) {
					return
				}
				i = int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err, false, nil)
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	if firstErr != nil {
		return firstErr
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// Map runs fn over [0, n) with bounded fan-out and returns the results in
// index order. On error the first (lowest-index) error is returned and the
// results are discarded.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachChunk covers [0, n) with contiguous half-open chunks [lo, hi) and
// runs fn on each with at most workers goroutines. It amortizes dispatch
// overhead when per-index work is small; chunk boundaries depend only on n
// and workers, never on scheduling. Error selection follows ForEach (the
// chunk with the lowest lo wins).
func ForEachChunk(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers == 1 {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return fn(0, n)
	}
	// A few chunks per worker smooths imbalance between cheap and
	// expensive regions without resorting to per-index dispatch.
	chunks := workers * 4
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	count := (n + size - 1) / size
	return ForEach(ctx, count, workers, func(c int) error {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}

package bgw

import (
	"runtime"
	"sync"

	"sqm/internal/field"
)

// effectiveWorkers resolves a configured pool bound: n <= 0 means
// runtime.NumCPU() (the NumCPU-capped default); explicit positive
// values pass through so a pinned pool size means the same chunking —
// and the same per-chunk randomness — on every machine.
func effectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// clampWorkers additionally caps the bound at the job count (each
// worker must own at least one job for the chunk split to be
// meaningful).
func clampWorkers(n, jobs int) int {
	n = effectiveWorkers(n)
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallelChunks splits [0, n) into workers contiguous chunks and runs
// fn(chunk, start, end) for each, concurrently when workers > 1. Chunk
// boundaries depend only on (n, workers), so the work assignment — and
// therefore any per-chunk randomness — is deterministic for a fixed
// pool size. Writers must target disjoint index ranges; the merge order
// is the slot order, not the completion order.
func parallelChunks(n, workers int, fn func(chunk, start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		start, end := c*n/workers, (c+1)*n/workers
		if start >= end {
			continue
		}
		wg.Add(1)
		go func(c, s, e int) {
			defer wg.Done()
			fn(c, s, e)
		}(c, start, end)
	}
	wg.Wait()
}

// growElems returns scratch resized to n elements, reusing the backing
// array when it already fits, for scratch whose size tracks the
// program or batch shape.
func growElems(scratch []field.Elem, n int) []field.Elem {
	if cap(scratch) >= n {
		return scratch[:n]
	}
	return make([]field.Elem, n)
}

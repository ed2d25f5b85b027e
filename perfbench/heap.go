package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler records the live heap marked by each GC cycle (the
// runtime updates /gc/heap/live:bytes once per cycle) until stopped. A
// cycle that ends within one tick of the next is missed; the workloads'
// cycles run far longer apart.
type heapSampler struct {
	mu       sync.Mutex
	lives    []float64 // bytes, one per observed GC cycle
	retained float64   // bytes live after the forced collection at freeze
	stop     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

var heapSamples = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := append([]metrics.Sample(nil), heapSamples...)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var lastCycle uint64
		for {
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != lastCycle {
				lastCycle = c
				h.mu.Lock()
				h.lives = append(h.lives, float64(s[0].Value.Uint64()))
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// heapPeakPct is the percentile of per-cycle live heaps reported as the
// transient peak: the top of the distribution without the single
// luckiest cycle.
const heapPeakPct = 90

// freeze stops sampling, waits for the sampler to exit, and forces one
// collection so the heap retained at the end of the window is measured
// exactly rather than as of whichever cycle ran last. It runs after the
// last op, so no op's wall-clock includes it. Later calls do nothing.
func (h *heapSampler) freeze() {
	h.once.Do(func() {
		close(h.stop)
		h.wg.Wait()
		runtime.GC()
		s := append([]metrics.Sample(nil), heapSamples...)
		metrics.Read(s)
		h.retained = float64(s[0].Value.Uint64())
	})
}

// finish freezes the sampler and returns the peak live heap in bytes:
// the larger of the heap retained at the freeze and the heapPeakPct
// percentile of the live heap across GC cycles.
func (h *heapSampler) finish() uint64 {
	h.freeze()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := percentile(h.lives, heapPeakPct)
	if h.retained > peak {
		peak = h.retained
	}
	return uint64(peak)
}

package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// median of xs (NaN for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	allocsMetric      = "/gc/heap/allocs:objects"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the heap's object bytes (live plus not yet swept)
// every millisecond on its own goroutine while active, until finish,
// which stops the goroutine, waits for it and returns the largest
// sample in MiB.
type heapPeak struct {
	stop   chan struct{}
	done   chan struct{}
	active atomic.Bool
	peak   uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.active.Store(true)
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			// Read, then check active: a sample taken once a pause has
			// begun is never recorded.
			metrics.Read(s)
			if v := s[0].Value.Uint64(); h.active.Load() && v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// measured is one operation's cost: wall seconds, peak heap and the
// number of heap allocations it made.
type measured struct {
	wall    float64
	peakMiB float64
	allocs  uint64
}

// meter measures one operation: its wall time, peak heap and
// allocations, all paused across gaps.
type meter struct {
	hp     *heapPeak
	t0     time.Time
	wall   time.Duration
	a0     uint64
	allocs uint64
}

// gap runs fn between two of an operation's program calls, outside the
// measurement (an output check, say), then collects the garbage so the
// next call starts from a clean heap, as the operation's first does. A
// nil meter just runs fn.
func (m *meter) gap(fn func()) {
	if m == nil {
		fn()
		return
	}
	m.pause()
	fn()
	m.resume()
}

func (m *meter) pause() {
	m.wall += time.Since(m.t0)
	m.allocs += readMetric(allocsMetric) - m.a0
	m.hp.active.Store(false)
}

func (m *meter) resume() {
	runtime.GC()
	m.hp.active.Store(true)
	m.a0 = readMetric(allocsMetric)
	m.t0 = time.Now()
}

// measure runs op after a full collection and records its cost.
func measure(op func(m *meter) error) (measured, error) {
	runtime.GC()
	m := &meter{hp: startHeapPeak(), a0: readMetric(allocsMetric), t0: time.Now()}
	err := op(m)
	m.pause()
	return measured{wall: m.wall.Seconds(), peakMiB: m.hp.finish(), allocs: m.allocs}, err
}

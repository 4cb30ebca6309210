package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkQueue verifies the fleet queue's structural invariants — heap
// order under (horizon, index) and pos as heap's inverse — and that
// collectDue(t) reports exactly the machines a brute-force scan finds
// due (every machine in eager mode).
func checkQueue(t *testing.T, q *fleetQueue, at float64) {
	t.Helper()
	for k := range q.heap {
		if q.pos[q.heap[k]] != k {
			t.Fatalf("pos[%d] = %d, want %d", q.heap[k], q.pos[q.heap[k]], k)
		}
		if k > 0 && q.less(k, (k-1)/2) {
			parent := q.heap[(k-1)/2]
			t.Fatalf("heap slot %d (machine %d, horizon %g) orders before its parent (machine %d, horizon %g)",
				k, q.heap[k], q.horizon[q.heap[k]], parent, q.horizon[parent])
		}
	}
	got := slices.Clone(q.collectDue(at))
	slices.Sort(got)
	var want []int
	for i, h := range q.horizon {
		if h <= at || q.eager {
			want = append(want, i)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("collectDue(%g) = %v, brute force finds %v", at, got, want)
	}
}

// The fleet queue under the workload the pool puts on it: collect a due
// batch, rewrite every due machine's horizon in place (later, earlier,
// +Inf — whatever the advance reports), repair in one batch, then
// interleave the serial single-machine operations (touch, update, grow).
// After every step the heap must be valid and collectDue must agree
// with a brute-force scan; a due machine buried under a later-horizon
// ancestor would otherwise never be advanced again. Eager mode, where
// every batch is the whole fleet, must keep the same invariants.
func TestFleetQueueBatchRepairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	horizon := func(now float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return now // a machine that stays due
		default:
			return now + rng.Float64()*4
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		q := newFleetQueue(n, trial%4 == 3)
		now := 0.0
		checkQueue(t, q, now)
		for step := 0; step < 40; step++ {
			now += rng.Float64()
			for _, i := range q.collectDue(now) {
				q.horizon[i] = horizon(now)
			}
			q.repair()
			checkQueue(t, q, now+rng.Float64())
			switch rng.Intn(4) {
			case 0:
				q.touch(rng.Intn(len(q.horizon)), now+rng.Float64())
			case 1:
				q.update(rng.Intn(len(q.horizon)), horizon(now))
			case 2:
				q.grow(horizon(now))
			}
			checkQueue(t, q, now+rng.Float64())
		}
	}
}

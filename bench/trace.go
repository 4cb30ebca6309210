package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/pbb"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
)

// callStat aggregates one per-call boundary: a count and busy time.
// Atomic, because a cluster run with Workers > 1 calls per-machine
// policies from several goroutines.
type callStat struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *callStat) add(start time.Time) {
	c.nanos.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

func (c *callStat) seconds() float64 { return float64(c.nanos.Load()) / 1e9 }

// span is one coarse boundary crossing, timed from outside the program.
// Times are nanoseconds since the recorder started; Parent indexes the
// enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder collects the traced run: spans for coarse boundaries (sim
// runs, cluster runs, checkpoint reads, the result encode, spec and
// trace I/O) and aggregated counters for per-call boundaries (policy
// and placement calls), so memory stays bounded however many calls a
// run makes. A nil *recorder records nothing: untraced runs pass nil.
type recorder struct {
	id    string
	t0    time.Time
	spans []span
	open  []int // stack of open span indices

	onWindow, reconfigure, assignment, otherPolicy callStat
	place                                          callStat
	staticDecide, pbbDecide                        callStat
	pbbNodes                                       atomic.Int64
}

func newRecorder(id string) *recorder { return &recorder{id: id, t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns a
// function that closes it. Spans are opened and closed on the
// benchmark's own goroutine only.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].End = int64(time.Since(r.t0))
		r.open = r.open[:len(r.open)-1]
	}
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func (r *recorder) policyBusy() float64 {
	return r.onWindow.seconds() + r.reconfigure.seconds() + r.assignment.seconds() + r.otherPolicy.seconds()
}

// writeSpans writes the spans as one JSON document.
func (r *recorder) writeSpans(path string) error {
	buf, err := json.MarshalIndent(struct {
		Trace string `json:"trace"`
		Spans []span `json:"spans"`
	}{r.id, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// timedPolicy decorates a sim.Dynamic with per-method counts and busy
// time.
type timedPolicy struct {
	inner sim.Dynamic
	rec   *recorder
}

func (p *timedPolicy) AddApp(id int) error {
	t := time.Now()
	defer p.rec.otherPolicy.add(t)
	return p.inner.AddApp(id)
}

func (p *timedPolicy) RemoveApp(id int) {
	t := time.Now()
	p.inner.RemoveApp(id)
	p.rec.otherPolicy.add(t)
}

func (p *timedPolicy) WindowInsns(id int) uint64 {
	t := time.Now()
	defer p.rec.otherPolicy.add(t)
	return p.inner.WindowInsns(id)
}

func (p *timedPolicy) OnWindow(id int, w pmc.Sample) bool {
	t := time.Now()
	defer p.rec.onWindow.add(t)
	return p.inner.OnWindow(id, w)
}

func (p *timedPolicy) Reconfigure() plan.Plan {
	t := time.Now()
	defer p.rec.reconfigure.add(t)
	return p.inner.Reconfigure()
}

func (p *timedPolicy) Assignment() (map[int]cat.WayMask, error) {
	t := time.Now()
	defer p.rec.assignment.add(t)
	return p.inner.Assignment()
}

// passiveFwd forwards sim.PassiveWindows. It cannot be an embedded
// sim.PassiveWindows: that field's name would hide its method.
type passiveFwd struct{ pw sim.PassiveWindows }

func (f passiveFwd) PassiveWindows() bool { return f.pw.PassiveWindows() }

// wrapPolicy decorates pol; with a nil recorder it returns pol itself.
// The decorator implements exactly the optional refinements pol does
// (sim.PassiveWindows, sim.PolicySnapshotter), forwarding them
// untimed, so the kernel and the checkpoint code see the same
// capabilities with the decorator on.
func wrapPolicy(pol sim.Dynamic, rec *recorder) sim.Dynamic {
	if rec == nil {
		return pol
	}
	t := &timedPolicy{inner: pol, rec: rec}
	pw, passive := pol.(sim.PassiveWindows)
	ps, snap := pol.(sim.PolicySnapshotter)
	switch {
	case passive && snap:
		return struct {
			*timedPolicy
			passiveFwd
			sim.PolicySnapshotter
		}{t, passiveFwd{pw}, ps}
	case passive:
		return struct {
			*timedPolicy
			passiveFwd
		}{t, passiveFwd{pw}}
	case snap:
		return struct {
			*timedPolicy
			sim.PolicySnapshotter
		}{t, ps}
	default:
		return t
	}
}

// timedPlacement decorates a cluster.Policy with a call count and busy
// time.
type timedPlacement struct {
	inner cluster.Policy
	rec   *recorder
}

func (p *timedPlacement) Name() string { return p.inner.Name() }

func (p *timedPlacement) Place(spec *appmodel.Spec, t float64, machines []cluster.MachineState) int {
	start := time.Now()
	defer p.rec.place.add(start)
	return p.inner.Place(spec, t, machines)
}

// shardFwd forwards cluster.ShardablePlacement, decorating every
// sub-fleet's instance with the same recorder.
type shardFwd struct {
	sp  cluster.ShardablePlacement
	rec *recorder
}

func (f shardFwd) Shard() cluster.Policy { return wrapPlacement(f.sp.Shard(), f.rec) }

// wrapPlacement decorates pl like wrapPolicy does a partitioning
// policy, forwarding cluster.PlacementSnapshotter and
// cluster.ShardablePlacement when pl implements them.
func wrapPlacement(pl cluster.Policy, rec *recorder) cluster.Policy {
	if rec == nil {
		return pl
	}
	t := &timedPlacement{inner: pl, rec: rec}
	ps, snap := pl.(cluster.PlacementSnapshotter)
	sp, shard := pl.(cluster.ShardablePlacement)
	switch {
	case snap && shard:
		return struct {
			*timedPlacement
			cluster.PlacementSnapshotter
			shardFwd
		}{t, ps, shardFwd{sp, rec}}
	case snap:
		return struct {
			*timedPlacement
			cluster.PlacementSnapshotter
		}{t, ps}
	case shard:
		return struct {
			*timedPlacement
			shardFwd
		}{t, shardFwd{sp, rec}}
	default:
		return t
	}
}

// decide times one policy.Static.Decide call.
func decide(pol policy.Static, w *policy.Workload, rec *recorder) (plan.Plan, error) {
	if rec == nil {
		return pol.Decide(w)
	}
	t := time.Now()
	defer rec.staticDecide.add(t)
	return pol.Decide(w)
}

// bestStatic is policy.BestStatic with the solver's node count exposed:
// Decide makes exactly the solver call BestStatic.Decide makes, and the
// traced run's results are checked equal to the untraced harness run's.
type bestStatic struct {
	policy.BestStatic
	rec *recorder
}

func (b bestStatic) Decide(w *policy.Workload) (plan.Plan, error) {
	if err := w.Validate(); err != nil {
		return plan.Plan{}, err
	}
	t := time.Now()
	solver := pbb.New(w.Plat)
	solver.NodeBudget = b.NodeBudget
	solver.Workers = b.Workers
	solver.Seeds = b.Seeds
	sol, err := solver.OptimalClustering(w.Phases, b.Objective)
	if b.rec != nil {
		b.rec.pbbDecide.add(t)
		b.rec.pbbNodes.Add(int64(sol.Nodes))
	}
	if err != nil {
		return plan.Plan{}, err
	}
	return sol.Plan, nil
}

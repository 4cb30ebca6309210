package main

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/workloads"
)

// The decorators must expose exactly the optional refinements of what
// they wrap: the kernel type-asserts sim.PassiveWindows, checkpointing
// sim.PolicySnapshotter and cluster.PlacementSnapshotter, and sharding
// cluster.ShardablePlacement.
func TestDecoratorsForwardRefinements(t *testing.T) {
	rec := newRecorder("test")
	cfg := harness.DefaultConfig()
	fixed, err := sim.NewFixedPlanPolicy(plan.SingleCluster(2, cfg.Plat.Ways), 2, cfg.Plat.Ways)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stock", "dunn", "lfoc"} {
		pol, _, err := cfg.NewDynamicPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		checkPolicy(t, name, pol, wrapPolicy(pol, rec))
	}
	checkPolicy(t, "fixed", fixed, wrapPolicy(fixed, rec))
	for _, name := range []string{"rr", "least", "fair"} {
		pl, err := cluster.NewPlacement(name, cfg.Plat)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapPlacement(pl, rec)
		_, s1 := pl.(cluster.PlacementSnapshotter)
		_, s2 := w.(cluster.PlacementSnapshotter)
		_, h1 := pl.(cluster.ShardablePlacement)
		_, h2 := w.(cluster.ShardablePlacement)
		if s1 != s2 || h1 != h2 || w.Name() != pl.Name() {
			t.Errorf("%s: decorator snapshot=%v shard=%v name=%q, policy snapshot=%v shard=%v name=%q", name, s2, h2, w.Name(), s1, h1, pl.Name())
		}
	}
}

func checkPolicy(t *testing.T, name string, pol, w sim.Dynamic) {
	t.Helper()
	p1, ok1 := pol.(sim.PassiveWindows)
	p2, ok2 := w.(sim.PassiveWindows)
	_, s1 := pol.(sim.PolicySnapshotter)
	_, s2 := w.(sim.PolicySnapshotter)
	if ok1 != ok2 || s1 != s2 || (ok1 && p1.PassiveWindows() != p2.PassiveWindows()) {
		t.Errorf("%s: decorator passive=%v snapshot=%v, policy passive=%v snapshot=%v", name, ok2, s2, ok1, s1)
	}
}

// A short paper-closed: the traced replica equals the harness figures,
// and so does the undecorated replica.
func TestPaperClosedTracedEqualsUntraced(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 500
	get := func(names ...string) []workloads.Workload {
		var out []workloads.Workload
		for _, n := range names {
			w, err := workloads.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w)
		}
		return out
	}
	p := newPaperClosed(cfg, get("S1", "S12"), get("P1", "S2"))
	in := p.setup(3)
	want, err := p.run(in)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder("test")
	got, work, err := p.replica(in, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced replica %+v\nharness %+v", got, want)
	}
	plain, work2, err := p.replica(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, want) || work2 != work {
		t.Fatalf("untraced replica differs")
	}
	if work.appTicks <= 0 || rec.pbbDecide.calls.Load() != 2 || rec.onWindow.calls.Load() == 0 {
		t.Fatalf("traced replica counted app-ticks %v, pbb calls %d, windows %d",
			work.appTicks, rec.pbbDecide.calls.Load(), rec.onWindow.calls.Load())
	}
}

// Short cluster workloads: a decorated operation's results equal an
// undecorated one's, the resume leg equals the uninterrupted run, and
// the run without checkpoints equals the run with them.
func TestFleetTracedEqualsUntraced(t *testing.T) {
	cfg := harness.DefaultConfig()
	cases := []*fleetCase{
		{name: "fleet-1k", arrivals: 60, mix: "4x11way,4x7way", placement: "least"},
		{name: "chaos-resume", arrivals: 80, mix: "4x11way,4x7way", placement: "fair", chaos: &chaosConfig{
			events:          []workloads.FleetEvent{{Time: 0.5, Kind: "drain", Machine: 1}, {Time: 1, Kind: "drain", Machine: 6}},
			mtbf:            1,
			autoscale:       cluster.Autoscale{Interval: 0.25, Up: 1, Down: 0.1, Min: 8, Max: 12},
			checkpointEvery: 0.5,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg, c.specPath, c.workDir = cfg, "specs/"+c.name+".yaml", t.TempDir()
			in, err := c.setup(7, 3*c.legs(), nil)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := c.run(in, 0, nil, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			d1, ticks, err := c.verify(in, plain)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder("test")
			traced, err := c.run(in, c.legs(), rec, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			d2, _, err := c.verify(in, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traced.res, plain.res) || d1 != d2 || !bytes.Equal(traced.encoded, plain.encoded) {
				t.Fatal("the decorated run differs from the undecorated run")
			}
			if ticks <= 0 || rec.place.calls.Load() < int64(in.nArrivals) || rec.onWindow.calls.Load() == 0 {
				t.Fatalf("app-ticks %v, place calls %d for %d arrivals, windows %d",
					ticks, rec.place.calls.Load(), in.nArrivals, rec.onWindow.calls.Load())
			}
			if c.chaos == nil {
				return
			}
			lc := plain.res.Lifecycle
			if lc == nil || lc.Drains == 0 || plain.ckptBytes == 0 {
				t.Fatalf("chaos lifecycle %+v, checkpoint bytes %d", lc, plain.ckptBytes)
			}
			off, err := c.run(in, 2*c.legs(), newRecorder("off"), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(off.res, plain.res) {
				t.Fatal("the run without checkpoints differs from the run with them")
			}
		})
	}
}

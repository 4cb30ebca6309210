package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"github.com/faircache/lfoc/internal/atomicfile"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// fleetCase is a cluster workload: arrivals generated from a committed
// spec file, recorded as an lfoc-trace v1 file and read back, then run
// over a heterogeneous fleet with LFOC on every machine. A chaos case
// adds the lifecycle layer, periodic checkpoints, a resume leg and the
// result encode.
type fleetCase struct {
	name      string
	cfg       harness.Config
	specPath  string
	arrivals  int // when > 0, the generated trace is cut to its first arrivals (short test versions)
	mix       string
	placement string
	workDir   string
	chaos     *chaosConfig
}

// chaosConfig is the chaos-resume lifecycle: scheduled drains, seeded
// random failures, load-driven autoscaling and periodic checkpoints.
type chaosConfig struct {
	events          []workloads.FleetEvent
	mtbf            float64 // simulated seconds between random failures
	autoscale       cluster.Autoscale
	checkpointEvery float64 // simulated seconds
}

// fleetInput is one operation's inputs: the scenario read back from the
// trace file, the fleet, and fresh policies for every cluster.Run the
// operation makes.
type fleetInput struct {
	seed       int64
	scn        *scenario.Open
	nArrivals  int
	traceBytes int64
	fleet      []sim.Config
	runs       []fleetPolicies
}

type fleetPolicies struct {
	placement cluster.Policy
	machines  []sim.Dynamic
}

// setup builds the inputs of legs cluster runs: fresh placement and
// partitioning policies for each.
func (c *fleetCase) setup(seed int64, legs int, rec *recorder) (*fleetInput, error) {
	end := rec.begin("workloads.LoadSpec")
	spec, err := workloads.LoadSpec(c.specPath)
	end()
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	end = rec.begin("workloads.Generate")
	arr, err := spec.Generate(c.cfg.Scale)
	end()
	if err != nil {
		return nil, err
	}
	if c.arrivals > 0 && len(arr) > c.arrivals {
		arr = arr[:c.arrivals]
	}
	tracePath := filepath.Join(c.workDir, c.name+".trace")
	end = rec.begin("workloads.WriteTraceFile")
	err = workloads.WriteTraceFile(tracePath, &workloads.Trace{Name: spec.Name, Scale: c.cfg.Scale, Arrivals: arr})
	end()
	if err != nil {
		return nil, err
	}
	end = rec.begin("workloads.ReadTraceFile")
	tr, err := workloads.ReadTraceFile(tracePath)
	end()
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(tracePath)
	if err != nil {
		return nil, err
	}
	scn, err := tr.Scenario()
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.ParseMachineMix(c.mix, c.cfg.SimConfig())
	if err != nil {
		return nil, err
	}
	in := &fleetInput{seed: seed, scn: scn, nArrivals: len(tr.Arrivals), traceBytes: st.Size(), fleet: fleet}
	for l := 0; l < legs; l++ {
		pl, err := cluster.NewPlacement(c.placement, c.cfg.Plat)
		if err != nil {
			return nil, err
		}
		pols := make([]sim.Dynamic, len(fleet))
		for i := range fleet {
			if pols[i], _, err = c.cfg.NewDynamicPolicyFor("lfoc", fleet[i].Plat); err != nil {
				return nil, err
			}
		}
		in.runs = append(in.runs, fleetPolicies{placement: pl, machines: pols})
	}
	return in, nil
}

// legs is the number of cluster runs one untraced operation makes.
func (c *fleetCase) legs() int {
	if c.chaos != nil {
		return 2 // the full run and the resume leg
	}
	return 1
}

// fleetOutcome is what one operation produced. encoded is the chaos
// result as written, kept only until it is digested; resumedEqual
// records whether the resume leg reproduced the uninterrupted result.
type fleetOutcome struct {
	res          *cluster.Result
	encoded      []byte
	ckptBytes    int64
	resumedEqual bool
}

func (c *fleetCase) config(in *fleetInput, run fleetPolicies, rec *recorder) (cluster.Config, error) {
	ccfg := cluster.Config{Fleet: in.fleet, Placement: wrapPlacement(run.placement, rec), Workers: 1}
	if c.chaos == nil {
		return ccfg, nil
	}
	cevs, err := harness.ClusterEvents(c.chaos.events)
	if err != nil {
		return ccfg, err
	}
	as := c.chaos.autoscale
	ccfg.Lifecycle = &cluster.Lifecycle{
		Events:      cevs,
		MTBF:        c.chaos.mtbf,
		FailureSeed: in.seed,
		Autoscale:   &as,
		JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
			pol, _, err := c.cfg.NewDynamicPolicyFor("lfoc", mc.Plat)
			return wrapPolicy(pol, rec), err
		},
	}
	return ccfg, nil
}

func machineFactory(pols []sim.Dynamic, rec *recorder) func(int) (sim.Dynamic, error) {
	return func(i int) (sim.Dynamic, error) { return wrapPolicy(pols[i], rec), nil }
}

// run is one operation on the policies of in.runs[leg:]: the cluster
// run, and for chaos-resume the checkpoint read, the resume leg and the
// result encode, with m's gaps between them. ckpt selects whether the
// full run writes its periodic checkpoints; only a traced run turns it
// off, to time checkpoint writing by difference, and then the operation
// ends after the cluster run. The resume leg is never decorated: it is
// one row of the layer table.
func (c *fleetCase) run(in *fleetInput, leg int, rec *recorder, ckpt bool, m *meter) (*fleetOutcome, error) {
	full := in.runs[leg]
	ccfg, err := c.config(in, full, rec)
	if err != nil {
		return nil, err
	}
	ckptPath := filepath.Join(c.workDir, c.name+".ckpt")
	if c.chaos != nil && ckpt {
		if err := os.Remove(ckptPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		ccfg.Checkpoint = &cluster.CheckpointConfig{Path: ckptPath, Every: c.chaos.checkpointEvery}
	}
	end := rec.begin("cluster.Run")
	res, err := cluster.Run(ccfg, in.scn, machineFactory(full.machines, rec))
	end()
	if err != nil {
		return nil, err
	}
	out := &fleetOutcome{res: res}
	if c.chaos == nil || !ckpt {
		return out, nil
	}

	m.gap(func() {})
	end = rec.begin("cluster.ReadCheckpoint")
	ck, err := cluster.ReadCheckpoint(ckptPath)
	end()
	if err != nil {
		return nil, err
	}
	m.gap(func() {
		var st os.FileInfo
		if st, err = os.Stat(ckptPath); err == nil {
			out.ckptBytes = st.Size()
		}
	})
	if err != nil {
		return nil, err
	}
	resume := in.runs[leg+1]
	rcfg, err := c.config(in, resume, nil)
	if err != nil {
		return nil, err
	}
	rcfg.Resume = ck
	end = rec.begin("cluster.Run.resume")
	resumed, err := cluster.Run(rcfg, in.scn, machineFactory(resume.machines, nil))
	end()
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	rcfg.Resume = nil
	m.gap(func() {
		out.resumedEqual = reflect.DeepEqual(resumed, res)
		resumed = nil
	})

	end = rec.begin("result.encode")
	out.encoded, err = c.writeResult(in, res)
	end()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resultJSON is the schema lfoc-sim -json writes for a cluster run.
type resultJSON struct {
	Workload string                 `json:"workload"`
	Policy   string                 `json:"policy"`
	Scale    uint64                 `json:"scale"`
	Seed     int64                  `json:"seed"`
	Mix      string                 `json:"mix,omitempty"`
	Events   []workloads.FleetEvent `json:"events,omitempty"`
	MTBF     float64                `json:"mtbf,omitempty"`
	*cluster.Result
}

// writeResult encodes and writes the result as lfoc-sim -json does and
// returns the bytes written.
func (c *fleetCase) writeResult(in *fleetInput, res *cluster.Result) ([]byte, error) {
	buf, err := json.MarshalIndent(resultJSON{Workload: c.name, Policy: "lfoc", Scale: c.cfg.Scale, Seed: in.seed,
		Mix: c.mix, Events: c.chaos.events, MTBF: c.chaos.mtbf, Result: res}, "", "  ")
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	if err := atomicfile.WriteFile(filepath.Join(c.workDir, c.name+".json"), buf, 0o644); err != nil {
		return nil, err
	}
	return buf, nil
}

// check verifies a finished result: not interrupted, and every arrival
// accounted for exactly once. Remaining already includes the arrivals a
// lifecycle run left unplaced (cluster.LifecycleSummary.Unplaced), so
// the identity is arrivals = departed + remaining + dead-lettered.
func (c *fleetCase) check(in *fleetInput, res *cluster.Result) error {
	if res.Interrupted {
		return fmt.Errorf("%s: result is marked interrupted", c.name)
	}
	dead, unplaced := 0, 0
	if lc := res.Lifecycle; lc != nil {
		dead, unplaced = lc.DeadLettered, lc.Unplaced
	}
	if got := res.Departed + res.Remaining + dead; got != in.nArrivals || unplaced > res.Remaining {
		return fmt.Errorf("%s: %d arrivals but departed %d + remaining %d + dead-lettered %d (unplaced %d)",
			c.name, in.nArrivals, res.Departed, res.Remaining, dead, unplaced)
	}
	return nil
}

// fleetDigest hashes a result's fleet-level fields. The full result of
// a 1024-machine run serializes to about a gigabyte, so it is digested
// through its aggregates, its windowed series and each machine's
// counts instead.
func fleetDigest(res *cluster.Result) (string, error) {
	type machine struct {
		Arrivals, Departed, Remaining, Evicted, Repartitions int
		Wait                                                 cluster.WaitStats
		SimSeconds                                           float64
		State                                                string
	}
	ms := make([]machine, len(res.PerMachine))
	for i, m := range res.PerMachine {
		ms[i] = machine{m.Arrivals, m.Open.Departed, m.Open.Remaining, m.Open.Evicted, m.Open.Repartitions, m.Wait, m.Open.SimSeconds, m.State}
	}
	r := *res
	r.PerMachine = nil
	buf, err := json.Marshal(struct {
		Result   cluster.Result
		Machines []machine
	}{r, ms})
	if err != nil {
		return "", err
	}
	return sha(buf), nil
}

// appTicks counts active app-ticks: for every application that held a
// core, its admitted-to-departed interval over the tick width. An
// application still resident when its machine stopped counts to the
// machine's end; one evicted by a drain or failure counts to the
// instant its machine went down.
func appTicks(res *cluster.Result, base sim.Config) (float64, error) {
	if err := base.Validate(); err != nil {
		return 0, err
	}
	tick := base.PolicyPeriod.Seconds() / float64(base.TicksPerPeriod)
	var held float64
	for _, m := range res.PerMachine {
		for _, a := range m.Open.Apps {
			if a.AdmittedAt < 0 {
				continue
			}
			end := m.Open.SimSeconds
			switch {
			case a.DepartedAt >= 0:
				end = a.DepartedAt
			case a.Evicted:
				end = m.DownAt
			}
			held += end - a.AdmittedAt
		}
	}
	return held / tick, nil
}

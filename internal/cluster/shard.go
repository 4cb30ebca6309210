// Sharded arrival streams: Config.Shards splits a cluster run into K
// disjoint sub-fleets fed by K striped sub-streams that execute with no
// cross-shard synchronization at all — the serial per-arrival placement
// point becomes K independent placement points running concurrently.
// Machine i belongs to shard i%K and trace arrival j to shard j%K, so
// every shard sees ~1/K of the load over ~1/K of the fleet in the
// original relative order.
//
// Each shard is an ordinary engine run over its own sub-fleet: machines,
// placement-visible states, placement decisions and the machine indices
// in errors are local (shard machine l is fleet machine shard + l*K);
// policy factories get the fleet index, and the merge maps results back
// to fleet indices.
//
// This is only a faithful execution for placement policies that declare
// order-independence (ShardablePlacement): each shard gets its own
// fresh instance via Shard() and never observes another shard's
// machines, so a policy whose decisions depend on the global decision
// history (FairnessAware) must stay on the serial path. Sharded results
// are deterministic — shards share nothing and the merge walks global
// machine order — but differ from the unsharded run by construction;
// the unsharded path remains the bit-exact reference.
package cluster

import (
	"fmt"
	"sync"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// runSharded executes the Shards > 1 path of Run. cfg, scn and sims
// are pre-validated by Run.
func runSharded(cfg Config, scn *scenario.Open, sims []sim.Config, newPolicy func(machine int) (sim.Dynamic, error)) (*Result, error) {
	k := cfg.Shards
	n := len(sims)
	if cfg.Lifecycle.active() {
		return nil, fmt.Errorf("cluster: sharded arrival streams are incompatible with the lifecycle layer (shards share no event timeline)")
	}
	sp, ok := cfg.Placement.(ShardablePlacement)
	if !ok {
		return nil, fmt.Errorf("cluster: placement %q does not declare order-independence (ShardablePlacement) — sharded arrival streams would change its semantics", cfg.Placement.Name())
	}
	if k > n {
		return nil, fmt.Errorf("cluster: %d shards need at least %d machines, fleet has %d", k, k, n)
	}

	// Build every shard's engine serially (policy factories and initial
	// placement are not required to be concurrency-safe); only the
	// engine runs below execute concurrently. Each shard is serial
	// inside (a single-worker pool), so Workers does not apply here —
	// the shard count is the parallelism.
	initial, arrivals := scn.Initial(), scn.Arrivals()
	engines := make([]*engine, k)
	streams := make([][]scenario.Arrival, k)
	for s := range engines {
		var subSims []sim.Config
		for g := s; g < n; g += k {
			subSims = append(subSims, sims[g])
		}
		var subInitial []*appmodel.Spec
		for j := s; j < len(initial); j += k {
			subInitial = append(subInitial, initial[j])
		}
		for j := s; j < len(arrivals); j += k {
			streams[s] = append(streams[s], arrivals[j])
		}
		shardCfg := cfg
		shardCfg.Placement = sp.Shard()
		shardPolicy := func(l int) (sim.Dynamic, error) { return newPolicy(s + l*k) }
		machines, states, placed, err := newFleet(shardCfg.Placement, scn, subInitial, subSims, shardPolicy, false)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d of %d: %w", s, k, err)
		}
		pool := newFleetPool(machines, states, 1, cfg.eagerAdvance)
		if engines[s], err = newEngine(&shardCfg, scn, subSims, pool, placed, streams[s]); err != nil {
			return nil, err
		}
	}

	errs := make([]error, k)
	var wg sync.WaitGroup
	for s, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = e.run(streams[s])
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d of %d: %w", s, k, err)
		}
	}

	// Merge: shard s's machine l is fleet machine s+l·k, its j-th
	// arrival trace arrival s+j·k.
	machines := make([]*sim.OpenMachine, n)
	placed := make([]int, n)
	var assignments []int
	if cfg.RecordAssignments {
		assignments = make([]int, len(arrivals))
	}
	for s, e := range engines {
		e.pool.reportStats(cfg.statsSink)
		for l, m := range e.pool.machines {
			machines[s+l*k] = m
			placed[s+l*k] = e.placed[l]
		}
		for j, l := range e.assignments {
			assignments[s+j*k] = s + l*k
		}
	}
	res, err := buildResult(cfg, scn, machines, placed, assignments, nil)
	if err != nil {
		return nil, err
	}
	res.Shards = k
	return res, nil
}

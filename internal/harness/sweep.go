package harness

import (
	"fmt"
	"strings"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

// SweepPolicies is the default partitioning-policy axis of a sweep.
var SweepPolicies = []string{"stock", "dunn", "lfoc"}

// SweepPlacements is the default placement axis of a sweep over more
// than one machine.
var SweepPlacements = []string{"rr", "least", "fair"}

// Experiment declares a sweep: one arrival source, one fleet template
// and the placement × policy axes crossed at every (source, rate).
type Experiment struct {
	// Workload names a Fig. 5 mix whose applications arrive by a seeded
	// Poisson process at each of Rates (arrivals per simulated second)
	// over Window simulated seconds.
	Workload string
	Rates    []float64
	Window   float64
	Seed     int64
	// Specs, the alternative source, lists workload-spec files; each
	// spec carries its own window and seed.
	Specs []string
	// Cluster is the fleet template every cell copies: Machines or
	// Fleet, Shards and Lifecycle. A zero Sim defaults to
	// cfg.SimConfig() and a zero fleet to one machine. Each cell sets
	// its own Placement, Workers 1 (cells are the unit of parallelism,
	// and a second level would oversubscribe multiplicatively), and the
	// Lifecycle's JoinPolicy and FailureSeed — the cell's trace seed, as
	// in a single run. Checkpoint, Resume, StopAfter, Cancel,
	// RecordAssignments and Lifecycle.Migration belong to single runs
	// and must stay unset.
	Cluster cluster.Config
	// Placements and Policies are the grid axes. Empty Policies means
	// SweepPolicies. Empty Placements means SweepPlacements (only the
	// shardable ones when Shards > 1), or "rr" alone for one machine
	// without a lifecycle, where placement cannot matter.
	Placements []string
	Policies   []string
}

// SweepRow is one (source, rate, placement, policy) cell.
type SweepRow struct {
	// Source is the workload name or the spec's scenario name; Rate is
	// the Poisson rate (0 for a spec source).
	Source    string  `json:"source"`
	Rate      float64 `json:"rate,omitempty"`
	Placement string  `json:"placement"`
	Policy    string  `json:"policy"`
	// Arrivals counts trace arrivals; MachineArrivals breaks them down
	// per machine — the load-balance view of the placement decision.
	Arrivals        int   `json:"arrivals"`
	MachineArrivals []int `json:"machine_arrivals"`
	Departed        int   `json:"departed"`
	Remaining       int   `json:"remaining"`
	// MeanSlowdown/MeanWait average over departed applications across
	// the fleet; Unfairness/STP are fleet-wide windowed means (the
	// open-system analogues of Eqs. 3 and 4); Throughput is completed
	// runs per simulated second.
	MeanSlowdown float64 `json:"mean_slowdown"`
	MeanWait     float64 `json:"mean_wait"`
	Unfairness   float64 `json:"unfairness"`
	STP          float64 `json:"stp"`
	Throughput   float64 `json:"throughput"`
	PeakActive   int     `json:"peak_active"`
	SimSeconds   float64 `json:"sim_seconds"`
	// Lifecycle is the cell's disruption accounting (nil without a
	// lifecycle). Its per-window Series is dropped, as the metric series
	// is: a row summarizes its run, and a single run's JSON carries the
	// trajectories.
	Lifecycle *cluster.LifecycleSummary `json:"lifecycle,omitempty"`
}

// SweepData is a sweep's result: the experiment's parameters and one
// row per cell, ordered by source, rate, placement, policy.
type SweepData struct {
	// Workload, Window and Seed describe a Poisson source.
	Workload string  `json:"workload,omitempty"`
	Window   float64 `json:"window_seconds,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Machines is the initial fleet size; Fleet names its platforms
	// when the template configures machines individually.
	Machines int        `json:"machines"`
	Fleet    string     `json:"fleet,omitempty"`
	Shards   int        `json:"shards,omitempty"`
	MTBF     float64    `json:"mtbf,omitempty"`
	Rows     []SweepRow `json:"rows"`
}

// sweepSource is one (source, rate) trace. scenario regenerates it for
// each cell: generation is a pure function of its inputs, so every cell
// faces the identical stream and no cell shares another's.
type sweepSource struct {
	name     string
	rate     float64
	seed     int64
	scenario func() (*scenario.Open, error)
}

// Sweep runs every (placement, policy) cell of e against every trace of
// its arrival source, each through cluster.Run over a copy of the fleet
// template — one machine included, where cluster.Run is bit-identical
// to sim.RunOpen. Cells fan out over cfg.Workers; the result does not
// depend on it.
func Sweep(cfg Config, e Experiment) (SweepData, error) {
	cfg = cfg.normalized()
	tmpl := e.Cluster
	if tmpl.Checkpoint != nil || tmpl.Resume != nil || tmpl.StopAfter > 0 || tmpl.Cancel != nil || tmpl.RecordAssignments {
		return SweepData{}, fmt.Errorf("sweep: checkpoints, stop/cancel and assignment logs apply to single cluster runs")
	}
	if tmpl.Lifecycle != nil && tmpl.Lifecycle.Migration != nil {
		return SweepData{}, fmt.Errorf("sweep: cells run concurrently and cannot share a Lifecycle.Migration instance (set MigrationCost)")
	}
	if tmpl.Sim.Plat == nil {
		tmpl.Sim = cfg.SimConfig()
	}
	if tmpl.Machines == 0 && len(tmpl.Fleet) == 0 {
		tmpl.Machines = 1
	}
	sims, err := tmpl.MachineConfigs()
	if err != nil {
		return SweepData{}, fmt.Errorf("sweep: %w", err)
	}
	sources, err := e.sources(cfg.Scale)
	if err != nil {
		return SweepData{}, fmt.Errorf("sweep: %w", err)
	}
	d := SweepData{Machines: len(sims), Shards: tmpl.Shards}
	if e.Workload != "" {
		d.Workload, d.Window, d.Seed = sources[0].name, e.Window, e.Seed
	}
	if len(tmpl.Fleet) > 0 {
		d.Fleet = cluster.MixNames(sims)
	}
	if tmpl.Lifecycle != nil {
		d.MTBF = tmpl.Lifecycle.MTBF
	}
	placements, policies := e.Placements, e.Policies
	if len(placements) == 0 {
		placements = defaultPlacements(cfg, tmpl, len(sims))
	}
	if len(policies) == 0 {
		policies = SweepPolicies
	}

	type cell struct {
		src               sweepSource
		placement, policy string
	}
	var cells []cell
	for _, src := range sources {
		for _, pl := range placements {
			for _, po := range policies {
				cells = append(cells, cell{src: src, placement: pl, policy: po})
			}
		}
	}
	d.Rows, err = mapRows(cfg.workers(), cells, func(c cell) (SweepRow, error) {
		row, err := sweepCell(cfg, tmpl, sims, c.src, c.placement, c.policy)
		if err != nil {
			return SweepRow{}, fmt.Errorf("sweep: %s rate %g %s/%s: %w", c.src.name, c.src.rate, c.placement, c.policy, err)
		}
		return row, nil
	})
	if err != nil {
		return SweepData{}, err
	}
	return d, nil
}

// sources resolves the arrival source into its traces, in row order.
func (e Experiment) sources(scale uint64) ([]sweepSource, error) {
	var out []sweepSource
	switch {
	case e.Workload != "" && len(e.Specs) > 0:
		return nil, fmt.Errorf("an experiment takes a Workload or Specs, not both")
	case len(e.Specs) > 0:
		for _, path := range e.Specs {
			s, err := workloads.LoadSpec(path)
			if err != nil {
				return nil, err
			}
			out = append(out, sweepSource{name: s.Name, seed: s.Seed,
				scenario: func() (*scenario.Open, error) { return s.Scenario(scale) }})
		}
	case len(e.Rates) == 0:
		return nil, fmt.Errorf("no arrival rates or spec files")
	default:
		w, err := workloads.Get(e.Workload)
		if err != nil {
			return nil, err
		}
		for _, rate := range e.Rates {
			out = append(out, sweepSource{name: w.Name, rate: rate, seed: e.Seed,
				scenario: func() (*scenario.Open, error) { return w.OpenScenario(rate, e.Window, e.Seed, scale) }})
		}
	}
	return out, nil
}

// defaultPlacements is the placement axis when the experiment names
// none.
func defaultPlacements(cfg Config, tmpl cluster.Config, machines int) []string {
	if machines == 1 && tmpl.Lifecycle == nil {
		return []string{"rr"}
	}
	if tmpl.Shards <= 1 {
		return SweepPlacements
	}
	var out []string
	for _, name := range SweepPlacements {
		pl, err := cluster.NewPlacement(name, cfg.Plat)
		if _, ok := pl.(cluster.ShardablePlacement); err == nil && ok {
			out = append(out, name)
		}
	}
	return out
}

func sweepCell(cfg Config, ccfg cluster.Config, sims []sim.Config, src sweepSource, placement, polName string) (SweepRow, error) {
	scn, err := src.scenario()
	if err != nil {
		return SweepRow{}, err
	}
	pl, err := cluster.NewPlacement(placement, cfg.Plat)
	if err != nil {
		return SweepRow{}, err
	}
	// The per-machine policy must match the machine's platform: in a
	// heterogeneous fleet way counts differ per machine.
	newPolicy := func(mc sim.Config) (sim.Dynamic, error) {
		pol, _, err := cfg.NewDynamicPolicyFor(polName, mc.Plat)
		return pol, err
	}
	ccfg.Placement = pl
	ccfg.Workers = 1
	if ccfg.Lifecycle != nil {
		// Cells run concurrently: each owns its copy of the lifecycle.
		lc := *ccfg.Lifecycle
		lc.FailureSeed = src.seed
		lc.JoinPolicy = func(_ int, mc sim.Config) (sim.Dynamic, error) { return newPolicy(mc) }
		ccfg.Lifecycle = &lc
	}
	res, err := cluster.Run(ccfg, scn, func(i int) (sim.Dynamic, error) { return newPolicy(sims[i]) })
	if err != nil {
		return SweepRow{}, err
	}
	row := SweepRow{
		Source:       src.name,
		Rate:         src.rate,
		Placement:    pl.Name(),
		Policy:       polName,
		Arrivals:     len(scn.Arrivals()),
		Departed:     res.Departed,
		Remaining:    res.Remaining,
		MeanSlowdown: res.MeanSlowdown,
		MeanWait:     res.MeanWait,
		Unfairness:   res.Series.MeanUnfairness(),
		STP:          res.Series.MeanSTP(),
		Throughput:   res.Series.TotalThroughput(),
		PeakActive:   res.PeakActive,
		SimSeconds:   res.SimSeconds,
		Lifecycle:    res.Lifecycle,
	}
	if row.Lifecycle != nil {
		row.Lifecycle.Series = metrics.LifecycleSeries{}
	}
	for _, m := range res.PerMachine {
		row.MachineArrivals = append(row.MachineArrivals, m.Arrivals)
	}
	return row, nil
}

// Render formats the sweep as one table per (source, rate). The
// placement and per-machine columns appear only when some cell ran on
// more than one machine, the lifecycle columns only with a lifecycle.
func (d SweepData) Render() string {
	fleet := fmt.Sprintf("%d machines", d.Machines)
	if d.Machines == 1 {
		fleet = "1 machine"
	}
	if d.Fleet != "" {
		fleet += " (" + d.Fleet + ")"
	}
	if d.Shards > 1 {
		fleet += fmt.Sprintf(", %d shards", d.Shards)
	}
	if d.MTBF > 0 {
		fleet += fmt.Sprintf(", MTBF %gs", d.MTBF)
	}
	out := fmt.Sprintf("Sweep: workload specs over %s\n", fleet)
	if d.Workload != "" {
		out = fmt.Sprintf("Sweep: workload %s, Poisson arrivals over %gs, seed %d, over %s\n", d.Workload, d.Window, d.Seed, fleet)
	}
	multi, lifecycle := false, false
	for _, r := range d.Rows {
		multi = multi || len(r.MachineArrivals) > 1
		lifecycle = lifecycle || r.Lifecycle != nil
	}
	header := []string{"policy", "arrivals", "departed", "slowdown", "wait(s)", "unfairness", "STP", "tput(runs/s)", "peak"}
	if multi {
		header = append([]string{"placement", "policy", "arrivals", "per-machine"}, header[2:]...)
	}
	if lifecycle {
		header = append(header, "fails", "drains", "joins", "disrupted", "migrated", "requeued", "dead", "avail")
	}
	var rows [][]string
	for i, r := range d.Rows {
		if i == 0 || r.Source != d.Rows[i-1].Source || r.Rate != d.Rows[i-1].Rate {
			out += renderTable(rows)
			title := r.Source
			if r.Rate != 0 {
				title = fmt.Sprintf("%s at %g/s", r.Source, r.Rate)
			}
			out += fmt.Sprintf("\n%s:\n", title)
			rows = [][]string{header}
		}
		cols := []string{r.Policy, fmt.Sprint(r.Arrivals)}
		if multi {
			loads := make([]string, len(r.MachineArrivals))
			for i, n := range r.MachineArrivals {
				loads[i] = fmt.Sprint(n)
			}
			cols = []string{r.Placement, r.Policy, fmt.Sprint(r.Arrivals), strings.Join(loads, "/")}
		}
		cols = append(cols, fmt.Sprint(r.Departed), f3(r.MeanSlowdown), f3(r.MeanWait),
			f3(r.Unfairness), f3(r.STP), f3(r.Throughput), fmt.Sprint(r.PeakActive))
		if l := r.Lifecycle; l != nil {
			cols = append(cols, fmt.Sprint(l.Failures), fmt.Sprint(l.Drains), fmt.Sprint(l.Joins), fmt.Sprint(l.Disruptions),
				fmt.Sprint(l.Migrations), fmt.Sprint(l.Requeues), fmt.Sprint(l.DeadLettered), f3(l.Availability))
		}
		rows = append(rows, cols)
	}
	return out + renderTable(rows)
}

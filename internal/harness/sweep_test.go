package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

const sweepSpec = `
spec_version: 1
seed: 9
duration_seconds: 4
cohorts:
  - mix:
      workload: S1
    rate:
      sinusoid:
        base: 2
        amplitude: 1
`

func writeSweepSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.yaml")
	if err := os.WriteFile(path, []byte(sweepSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweep runs e and fails the test on error.
func sweep(t *testing.T, cfg Config, e Experiment) SweepData {
	t.Helper()
	d, err := Sweep(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The open-system load sweep: stock, Dunn and LFOC face the identical
// seeded trace at every rate, on one machine.
func TestChurnSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 200
	d := sweep(t, cfg, Experiment{Workload: "S3", Rates: []float64{2, 8}, Window: 3, Seed: 7})
	np := len(SweepPolicies)
	if len(d.Rows) != 2*np {
		t.Fatalf("%d rows, want %d", len(d.Rows), 2*np)
	}
	// Identical traces per rate: every policy sees the same arrivals.
	for r := 0; r < 2; r++ {
		base := d.Rows[r*np]
		for pi := 1; pi < np; pi++ {
			row := d.Rows[r*np+pi]
			if row.Arrivals != base.Arrivals {
				t.Errorf("rate %g: %s saw %d arrivals, %s saw %d",
					base.Rate, base.Policy, base.Arrivals, row.Policy, row.Arrivals)
			}
			if row.Rate != base.Rate || row.Policy != SweepPolicies[pi] {
				t.Errorf("row order broken: %+v", row)
			}
		}
	}
	// The higher rate must actually offer more load.
	if d.Rows[np].Arrivals <= d.Rows[0].Arrivals {
		t.Errorf("rate 8 offered %d arrivals vs %d at rate 2", d.Rows[np].Arrivals, d.Rows[0].Arrivals)
	}
	for _, row := range d.Rows {
		if row.Departed+row.Remaining != row.Arrivals {
			t.Errorf("%s@%g: %d departed + %d remaining != %d arrivals",
				row.Policy, row.Rate, row.Departed, row.Remaining, row.Arrivals)
		}
		if row.Departed > 0 && row.MeanSlowdown < 1 {
			t.Errorf("%s@%g: mean slowdown %v < 1", row.Policy, row.Rate, row.MeanSlowdown)
		}
		// One machine: placement cannot matter, so one "rr" cell.
		if row.Placement != "rr" || !reflect.DeepEqual(row.MachineArrivals, []int{row.Arrivals}) || row.Lifecycle != nil {
			t.Errorf("%s@%g: single-machine row %+v", row.Policy, row.Rate, row)
		}
	}
	s := d.Render()
	if !strings.Contains(s, "S3 at 2/s") || !strings.Contains(s, "lfoc") || strings.Contains(s, "per-machine") {
		t.Errorf("render missing expected sections:\n%s", s)
	}
}

func TestSpecSweepSingleMachine(t *testing.T) {
	cfg := DefaultConfig()
	path := writeSweepSpec(t)
	d := sweep(t, cfg, Experiment{Specs: []string{path}, Policies: []string{"lfoc", "stock"}})
	if len(d.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Source != "sweep" || r.Rate != 0 {
			t.Errorf("row source %q rate %g, want file basename %q and no rate", r.Source, r.Rate, "sweep")
		}
		if r.Arrivals == 0 {
			t.Errorf("%s: no arrivals", r.Policy)
		}
		if !reflect.DeepEqual(r.MachineArrivals, []int{r.Arrivals}) {
			t.Errorf("%s: single machine admitted %v of %d arrivals", r.Policy, r.MachineArrivals, r.Arrivals)
		}
	}
	// Both policies face the identical generated trace.
	if d.Rows[0].Arrivals != d.Rows[1].Arrivals {
		t.Errorf("policies saw different traces: %d vs %d arrivals", d.Rows[0].Arrivals, d.Rows[1].Arrivals)
	}
	if d.Workload != "" || d.Render() == "" {
		t.Errorf("spec sweep header %+v / empty render", d)
	}
}

func TestSpecSweepClusterDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	path := writeSweepSpec(t)
	e := Experiment{Specs: []string{path}, Cluster: cluster.Config{Machines: 2},
		Placements: []string{"rr"}, Policies: []string{"lfoc"}}
	a, b := sweep(t, cfg, e), sweep(t, cfg, e)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("spec sweep is not deterministic")
	}
	r := a.Rows[0]
	if len(r.MachineArrivals) != 2 {
		t.Fatalf("want 2 machine-arrival counts, got %v", r.MachineArrivals)
	}
	if r.MachineArrivals[0]+r.MachineArrivals[1] != r.Arrivals {
		t.Fatalf("placement lost arrivals: %v vs %d", r.MachineArrivals, r.Arrivals)
	}
}

// Cells fan out over Config.Workers; the data must not depend on it,
// lifecycle included.
func TestSweepWorkersDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 200
	e := Experiment{Workload: "S1", Rates: []float64{2, 4}, Window: 2, Seed: 7,
		Cluster: cluster.Config{Machines: 3, Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{{Time: 0.5, Kind: cluster.MachineDrain, Machine: 1}},
			MTBF:   1.5,
		}},
		Policies: []string{"stock", "lfoc"}}
	cfg.Workers = 1
	serial := sweep(t, cfg, e)
	cfg.Workers = 4
	parallel := sweep(t, cfg, e)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sweep data differs between Workers 1 and 4")
	}
	if len(serial.Rows) != 2*len(SweepPlacements)*2 {
		t.Fatalf("%d rows, want rates × placements × policies = %d", len(serial.Rows), 2*len(SweepPlacements)*2)
	}
	for _, r := range serial.Rows {
		if r.Lifecycle == nil || r.Lifecycle.Events == 0 || len(r.Lifecycle.Series.Points) != 0 {
			t.Errorf("%s/%s@%g: lifecycle summary %+v", r.Placement, r.Policy, r.Rate, r.Lifecycle)
		}
	}
	if s := serial.Render(); !strings.Contains(s, "avail") || !strings.Contains(s, "per-machine") {
		t.Errorf("render lacks lifecycle or per-machine columns:\n%s", s)
	}
}

func TestSweepDefaultPlacements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 200
	for _, tc := range []struct {
		name string
		tmpl cluster.Config
		want []string
	}{
		{"one machine", cluster.Config{}, []string{"rr"}},
		{"fleet", cluster.Config{Machines: 2}, SweepPlacements},
		{"shards", cluster.Config{Machines: 2, Shards: 2}, []string{"rr", "least"}},
	} {
		d := sweep(t, cfg, Experiment{Workload: "S1", Rates: []float64{2}, Window: 1, Seed: 7,
			Cluster: tc.tmpl, Policies: []string{"stock"}})
		var got []string
		for _, r := range d.Rows {
			got = append(got, r.Placement)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: placements %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpecSweepErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 200
	poisson := Experiment{Workload: "S1", Rates: []float64{2}, Window: 1, Seed: 7}
	with := func(f func(*Experiment)) Experiment {
		e := poisson
		f(&e)
		return e
	}
	for name, e := range map[string]Experiment{
		"no source":        {},
		"missing spec":     {Specs: []string{filepath.Join(t.TempDir(), "missing.yaml")}},
		"two sources":      with(func(e *Experiment) { e.Specs = []string{writeSweepSpec(t)} }),
		"unknown workload": with(func(e *Experiment) { e.Workload = "S99" }),
		"unknown policy":   with(func(e *Experiment) { e.Policies = []string{"ucp"} }),
		"unknown place":    with(func(e *Experiment) { e.Placements = []string{"random"} }),
		"checkpoint":       with(func(e *Experiment) { e.Cluster.Checkpoint = &cluster.CheckpointConfig{Path: "x"} }),
		"assignments":      with(func(e *Experiment) { e.Cluster.RecordAssignments = true }),
		"shared migration": with(func(e *Experiment) {
			e.Cluster.Lifecycle = &cluster.Lifecycle{MTBF: 1, Migration: cluster.NewCostAwareMigration(0, cfg.Plat)}
		}),
		"shards fair": with(func(e *Experiment) {
			e.Cluster = cluster.Config{Machines: 2, Shards: 2}
			e.Placements = []string{"fair"}
		}),
	} {
		if _, err := Sweep(cfg, e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every sweep cell must equal an independent direct cluster.Run of the
// same source, fleet, placement and policy built without the harness —
// and, on one machine, sim.RunOpen.
func TestSweepCellMatchesDirectRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 200
	specPath := writeSweepSpec(t)
	spec, err := workloads.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Get("S3")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := cluster.ParseMachineMix("2x11way,2x7way", cfg.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	lifecycle := &cluster.Lifecycle{
		Events:        []cluster.Event{{Time: 0.5, Kind: cluster.MachineDrain, Machine: 1}},
		MTBF:          1.5,
		MigrationCost: 0.05,
		Autoscale:     &cluster.Autoscale{Interval: 0.5, Up: 0.3, Down: 0.15, Min: 2, Max: 6},
	}
	fleets := map[string]cluster.Config{
		"1 machine":  {},
		"4 machines": {Machines: 4},
		"mix":        {Fleet: mix},
		"lifecycle":  {Machines: 4, Lifecycle: lifecycle},
	}
	sources := map[string]Experiment{
		"poisson": {Workload: "S3", Rates: []float64{4}, Window: 2, Seed: 7},
		"spec":    {Specs: []string{specPath}},
	}
	var failures, drains, scaled int
	for fname, fleet := range fleets {
		for sname, src := range sources {
			e := src
			e.Cluster = fleet
			e.Policies = []string{"stock", "lfoc"}
			if fleet.Machines > 1 || len(fleet.Fleet) > 0 {
				e.Placements = []string{"least", "fair"}
			}
			d := sweep(t, cfg, e)
			for _, row := range d.Rows {
				scn, seed := directScenario(t, cfg, w, spec, sname)
				want := directRow(t, cfg, fleet, scn, seed, row.Placement, row.Policy)
				want.Source, want.Rate = row.Source, row.Rate
				if !reflect.DeepEqual(row, want) {
					t.Errorf("%s/%s %s/%s: sweep row\n%+v\nwant direct run\n%+v", fname, sname, row.Placement, row.Policy, row, want)
				}
				if l := row.Lifecycle; l != nil {
					failures, drains, scaled = failures+l.Failures, drains+l.Drains, scaled+l.AutoscaleActions
				}
				if fname == "1 machine" {
					scn, _ := directScenario(t, cfg, w, spec, sname)
					checkRunOpen(t, cfg, scn, row)
				}
			}
		}
	}
	// The lifecycle fleet must actually exercise failures, drains and
	// autoscaling, or its cells compare nothing the others do not.
	if failures == 0 || drains == 0 || scaled == 0 {
		t.Errorf("lifecycle cells saw %d failures, %d drains, %d autoscale actions; want all nonzero", failures, drains, scaled)
	}
}

func directScenario(t *testing.T, cfg Config, w workloads.Workload, spec *workloads.Spec, source string) (*scenario.Open, int64) {
	t.Helper()
	if source == "spec" {
		scn, err := spec.Scenario(cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		return scn, spec.Seed
	}
	scn, err := w.OpenScenario(4, 2, 7, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	return scn, 7
}

// directRow runs one cell straight through cluster.Run and reports it
// as a sweep row would.
func directRow(t *testing.T, cfg Config, fleet cluster.Config, scn *scenario.Open, seed int64, placement, polName string) SweepRow {
	t.Helper()
	pl, err := cluster.NewPlacement(placement, cfg.Plat)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.Config{Sim: cfg.SimConfig(), Machines: fleet.Machines, Fleet: fleet.Fleet, Placement: pl}
	if ccfg.Machines == 0 && len(ccfg.Fleet) == 0 {
		ccfg.Machines = 1
	}
	if fleet.Lifecycle != nil {
		lc := *fleet.Lifecycle
		lc.FailureSeed = seed
		lc.JoinPolicy = func(_ int, mc sim.Config) (sim.Dynamic, error) {
			pol, _, err := cfg.NewDynamicPolicyFor(polName, mc.Plat)
			return pol, err
		}
		ccfg.Lifecycle = &lc
	}
	sims, err := ccfg.MachineConfigs()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(ccfg, scn, func(i int) (sim.Dynamic, error) {
		pol, _, err := cfg.NewDynamicPolicyFor(polName, sims[i].Plat)
		return pol, err
	})
	if err != nil {
		t.Fatal(err)
	}
	row := SweepRow{
		Placement: res.Placement, Policy: polName, Arrivals: len(scn.Arrivals()),
		Departed: res.Departed, Remaining: res.Remaining,
		MeanSlowdown: res.MeanSlowdown, MeanWait: res.MeanWait,
		Unfairness: res.Series.MeanUnfairness(), STP: res.Series.MeanSTP(), Throughput: res.Series.TotalThroughput(),
		PeakActive: res.PeakActive, SimSeconds: res.SimSeconds, Lifecycle: res.Lifecycle,
	}
	if row.Lifecycle != nil {
		row.Lifecycle.Series = metrics.LifecycleSeries{}
	}
	for _, m := range res.PerMachine {
		row.MachineArrivals = append(row.MachineArrivals, m.Arrivals)
	}
	return row
}

// checkRunOpen pins a one-machine row against the single-machine open
// simulator.
func checkRunOpen(t *testing.T, cfg Config, scn *scenario.Open, row SweepRow) {
	t.Helper()
	pol, _, err := cfg.NewDynamicPolicy(row.Policy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunOpen(cfg.SimConfig(), scn, pol)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{float64(row.Arrivals), float64(row.Departed), float64(row.Remaining), row.MeanSlowdown, row.MeanWait,
		row.Unfairness, row.STP, row.Throughput, float64(row.PeakActive), row.SimSeconds}
	want := []float64{float64(len(res.Apps)), float64(res.Departed), float64(res.Remaining), res.MeanSlowdown, res.MeanWait,
		res.Series.MeanUnfairness(), res.Series.MeanSTP(), res.Series.TotalThroughput(), float64(res.PeakActive), res.SimSeconds}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s: sweep row %v, sim.RunOpen %v", row.Source, row.Policy, got, want)
	}
}

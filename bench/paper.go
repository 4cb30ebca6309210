package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/workloads"
)

// paperClosed is the paper-closed workload: the full Fig. 6 set
// (Stock/Dunn/KPart/LFOC/Best-Static on S1..S21) and the full Fig. 7
// set (Stock/Dunn/LFOC on the 24 dynamic mixes) under the §5 closed
// methodology. The seed sets the order in which the mixes are handed to
// the harness; the figures themselves do not depend on it.
type paperClosed struct {
	cfg        harness.Config
	fig6, fig7 []workloads.Workload
}

func newPaperClosed(cfg harness.Config, fig6, fig7 []workloads.Workload) *paperClosed {
	cfg.Workers = 1
	return &paperClosed{cfg: cfg, fig6: fig6, fig7: fig7}
}

// paperMix is one mix's prepared inputs: the scaled specs the simulator
// runs and the static policies' offline view of the mix.
type paperMix struct {
	w      workloads.Workload
	specs  []*appmodel.Spec
	static *policy.Workload
}

type paperInput struct {
	names6, names7 []string
	mixes6, mixes7 []paperMix
}

// paperResult is what the figures report; the traced replica must
// produce it reflect.DeepEqual to the harness.
type paperResult struct {
	Fig6 harness.Fig6Data
	Fig7 harness.Fig7Data
}

// setup shuffles the mixes with the seed and prepares their inputs.
func (p *paperClosed) setup(seed int64) *paperInput {
	rng := rand.New(rand.NewSource(seed))
	in := &paperInput{}
	in.names6, in.mixes6 = p.prepare(rng, p.fig6)
	in.names7, in.mixes7 = p.prepare(rng, p.fig7)
	return in
}

func (p *paperClosed) prepare(rng *rand.Rand, list []workloads.Workload) ([]string, []paperMix) {
	order := rng.Perm(len(list))
	names := make([]string, len(list))
	mixes := make([]paperMix, len(list))
	for i, j := range order {
		w := list[j]
		sw := &policy.Workload{Plat: p.cfg.Plat}
		for _, name := range w.Benchmarks {
			spec := workloads.Workload{Benchmarks: []string{name}}.Specs()[0]
			ph := spec.DominantPhase()
			sw.Phases = append(sw.Phases, ph)
			sw.Tables = append(sw.Tables, appmodel.BuildTable(ph, p.cfg.Plat))
		}
		names[i] = w.Name
		mixes[i] = paperMix{w: w, specs: w.ScaledSpecs(p.cfg.Scale), static: sw}
	}
	return names, mixes
}

// run is one untraced operation: both figures through the harness.
func (p *paperClosed) run(in *paperInput) (paperResult, error) {
	d6, err := harness.Fig6(p.cfg, in.names6)
	if err != nil {
		return paperResult{}, err
	}
	d7, err := harness.Fig7(p.cfg, in.names7)
	if err != nil {
		return paperResult{}, err
	}
	return paperResult{Fig6: d6, Fig7: d7}, nil
}

// paperWork is the model's work count over a replica run.
type paperWork struct {
	appTicks     float64
	repartitions int
}

// replica computes both figures the way the harness does, but through
// the public per-run calls (policy.Static.Decide, sim.RunStatic's
// fixed-plan policy under sim.RunDynamic, sim.RunDynamic), so that each
// call can be timed and each policy decorated. It also counts the
// closed runs' work, which the harness does not report.
func (p *paperClosed) replica(in *paperInput, rec *recorder) (paperResult, paperWork, error) {
	var work paperWork
	simCfg := p.cfg.SimConfig()
	if err := simCfg.Validate(); err != nil {
		return paperResult{}, work, err
	}
	tick := simCfg.PolicyPeriod.Seconds() / float64(simCfg.TicksPerPeriod)
	runSim := func(name string, specs []*appmodel.Spec, pol sim.Dynamic) (*sim.Result, error) {
		end := rec.begin(name)
		res, err := sim.RunDynamic(simCfg, specs, wrapPolicy(pol, rec))
		end()
		if err != nil {
			return nil, err
		}
		work.appTicks += float64(len(specs)) * res.SimSeconds / tick
		work.repartitions += res.Repartitions
		return res, nil
	}
	runStatic := func(specs []*appmodel.Spec, pl plan.Plan) (*sim.Result, error) {
		pol, err := sim.NewFixedPlanPolicy(pl, len(specs), simCfg.Plat.Ways)
		if err != nil {
			return nil, err
		}
		return runSim("sim.RunStatic", specs, pol)
	}

	var out paperResult
	rows6 := make([]harness.Fig6Row, 0, len(in.mixes6))
	for _, m := range in.mixes6 {
		row, err := p.fig6Row(m, runStatic, rec)
		if err != nil {
			return out, work, fmt.Errorf("fig6: %s: %w", m.w.Name, err)
		}
		rows6 = append(rows6, row)
	}
	rows7 := make([]harness.Fig7Row, 0, len(in.mixes7))
	for _, m := range in.mixes7 {
		row, err := p.fig7Row(m, runSim)
		if err != nil {
			return out, work, fmt.Errorf("fig7: %s: %w", m.w.Name, err)
		}
		rows7 = append(rows7, row)
	}
	out.Fig6.Rows = rows6
	out.Fig7.Rows = rows7
	var err error
	if out.Fig6.AvgNormUnf, out.Fig6.AvgNormSTP, err = geoMeans(len(harness.Fig6Policies), len(rows6), func(r, pi int) (float64, float64) {
		return rows6[r].NormUnf[pi], rows6[r].NormSTP[pi]
	}); err != nil {
		return out, work, err
	}
	if out.Fig7.AvgNormUnf, out.Fig7.AvgNormSTP, err = geoMeans(len(harness.Fig7Policies), len(rows7), func(r, pi int) (float64, float64) {
		return rows7[r].NormUnf[pi], rows7[r].NormSTP[pi]
	}); err != nil {
		return out, work, err
	}
	return out, work, nil
}

// geoMeans aggregates per-policy columns over rows as the figures do.
func geoMeans(nPol, nRows int, at func(row, pol int) (float64, float64)) (unf, stp []float64, err error) {
	for pi := 0; pi < nPol; pi++ {
		us := make([]float64, nRows)
		ss := make([]float64, nRows)
		for r := 0; r < nRows; r++ {
			us[r], ss[r] = at(r, pi)
		}
		gu, err := metrics.GeoMean(us)
		if err != nil {
			return nil, nil, err
		}
		gs, err := metrics.GeoMean(ss)
		if err != nil {
			return nil, nil, err
		}
		unf = append(unf, gu)
		stp = append(stp, gs)
	}
	return unf, stp, nil
}

// namedPlan serves an already-decided plan under a policy name, as the
// harness serves LFOC's static plan.
type namedPlan struct {
	name string
	plan plan.Plan
}

func (n namedPlan) Name() string                               { return n.name }
func (n namedPlan) Decide(*policy.Workload) (plan.Plan, error) { return n.plan, nil }

func (p *paperClosed) fig6Row(m paperMix, runStatic func([]*appmodel.Spec, plan.Plan) (*sim.Result, error), rec *recorder) (harness.Fig6Row, error) {
	stockPlan, err := decide(policy.Stock{}, m.static, rec)
	if err != nil {
		return harness.Fig6Row{}, err
	}
	stock, err := runStatic(m.specs, stockPlan)
	if err != nil {
		return harness.Fig6Row{}, err
	}
	lfocPlan, err := decide(policy.LFOCStatic{}, m.static, rec)
	if err != nil {
		return harness.Fig6Row{}, err
	}
	budget := p.cfg.SolverBudgetSmall
	if m.w.Size > 10 {
		budget = p.cfg.SolverBudgetLarge
	}
	pols := []policy.Static{
		policy.Dunn{},
		policy.KPart{},
		namedPlan{name: "LFOC", plan: lfocPlan},
		bestStatic{BestStatic: policy.BestStatic{NodeBudget: budget, Workers: 1, Seeds: []plan.Plan{lfocPlan}}, rec: rec},
	}
	row := harness.Fig6Row{Workload: m.w.Name}
	for _, pol := range pols {
		pl, err := decide(pol, m.static, rec)
		if err != nil {
			return row, fmt.Errorf("%s: %w", pol.Name(), err)
		}
		res, err := runStatic(m.specs, pl)
		if err != nil {
			return row, fmt.Errorf("%s: %w", pol.Name(), err)
		}
		row.NormUnf = append(row.NormUnf, res.Summary.Unfairness/stock.Summary.Unfairness)
		row.NormSTP = append(row.NormSTP, res.Summary.STP/stock.Summary.STP)
	}
	return row, nil
}

func (p *paperClosed) fig7Row(m paperMix, runSim func(string, []*appmodel.Spec, sim.Dynamic) (*sim.Result, error)) (harness.Fig7Row, error) {
	var res [3]*sim.Result
	resamples := 0
	for i, name := range []string{"stock", "dunn", "lfoc"} {
		pol, ctrl, err := p.cfg.NewDynamicPolicy(name)
		if err != nil {
			return harness.Fig7Row{}, err
		}
		if res[i], err = runSim("sim.RunDynamic", m.specs, pol); err != nil {
			return harness.Fig7Row{}, fmt.Errorf("%s: %w", name, err)
		}
		if ctrl != nil {
			for id := range m.specs {
				resamples += ctrl.Resamples(id)
			}
		}
	}
	stock, dunn, lfoc := res[0].Summary, res[1].Summary, res[2].Summary
	return harness.Fig7Row{
		Workload:      m.w.Name,
		NormUnf:       []float64{dunn.Unfairness / stock.Unfairness, lfoc.Unfairness / stock.Unfairness},
		NormSTP:       []float64{dunn.STP / stock.STP, lfoc.STP / stock.STP},
		LFOCResamples: resamples,
	}, nil
}

// policyIndex finds name in a figure's legend.
func policyIndex(legend []string, name string) int {
	for i, n := range legend {
		if n == name {
			return i
		}
	}
	return -1
}

// summary reports the figures' headline numbers — LFOC's Fig. 7
// unfairness and STP, normalized to Stock — and checks that LFOC stays
// below Stock's unfairness on both figures.
func (r paperResult) summary() (unfairness, stp float64, err error) {
	i6 := policyIndex(harness.Fig6Policies, "LFOC")
	i7 := policyIndex(harness.Fig7Policies, "LFOC")
	if i6 < 0 || i7 < 0 || len(r.Fig6.AvgNormUnf) <= i6 || len(r.Fig7.AvgNormUnf) <= i7 {
		return 0, 0, fmt.Errorf("paper-closed: LFOC missing from the figures")
	}
	if u := r.Fig6.AvgNormUnf[i6]; !(u < 1) {
		return 0, 0, fmt.Errorf("paper-closed: Fig. 6 LFOC unfairness %v is not below Stock's", u)
	}
	if u := r.Fig7.AvgNormUnf[i7]; !(u < 1) {
		return 0, 0, fmt.Errorf("paper-closed: Fig. 7 LFOC unfairness %v is not below Stock's", u)
	}
	return r.Fig7.AvgNormUnf[i7], r.Fig7.AvgNormSTP[i7], nil
}

func (r paperResult) digest() (string, error) {
	buf, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return sha(buf), nil
}

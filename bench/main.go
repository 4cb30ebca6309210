// Command bench is the repository's benchmark: it runs one workload
// for a fixed time, checks the simulator's outputs, and prints every
// metric by name and unit, ending with one JSON line.
//
//	bash bench/run.sh --workload fleet-1k --seed 3 --seconds 25 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// every decorator off; with --trace 1 it carries the per-layer metrics
// of one extra traced run (Workers: 1, each layer boundary timed from
// outside), printed beside a layer table. See README.md in this
// directory for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"time"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/workloads"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their failures; a failure is an error or
// a failed output check. Every failure is printed to standard error.
type tally struct {
	attempted, failed int
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
		return false
	}
	return true
}

// samples are the untraced operations' measurements; ticks[i] is
// operation i's active app-ticks.
type samples struct {
	setup, wall, peak, allocs, ticks []float64
}

func (s *samples) add(m measured, ticks float64) {
	s.wall = append(s.wall, m.wall)
	s.peak = append(s.peak, m.peakMiB)
	s.allocs = append(s.allocs, float64(m.allocs))
	s.ticks = append(s.ticks, ticks)
}

// A run sets up at least minSetups times and for at least
// minSetupSeconds in total; setup_s is the median.
const (
	minSetups       = 9
	minSetupSeconds = 0.25
)

func enoughSetups(setups []float64) bool {
	var sum float64
	for _, s := range setups {
		sum += s
	}
	return len(setups) >= minSetups && sum >= minSetupSeconds
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	specDir  string
	outDir   string // persistent output (span files)
	workDir  string // scratch for trace, checkpoint and result files
}

// layers is the traced run's view: the per-layer metrics and the rows
// of the layer table, whose seconds plus "unaccounted" sum to the
// traced wall time.
type layers struct {
	metrics map[string]metric
	rows    []layerRow
	wall    float64
	rec     *recorder
}

type layerRow struct {
	name    string
	seconds float64
}

// set records a per-layer value under the unit perLayerNames fixes.
func (l *layers) set(name string, v float64) {
	m := l.metrics[name]
	m.Value = v
	l.metrics[name] = m
}

// perLayerNames fixes the per-layer metric set and units; every
// workload reports all of them, 0 where it bypasses the layer.
var perLayerNames = []struct{ name, unit string }{
	{"sim.run_s", "s"}, {"sim.self_s", "s"}, {"sim.app_ticks", "ticks"}, {"sim.repartitions", "count"},
	{"policy.busy_s", "s"}, {"policy.on_window_calls", "count"}, {"policy.on_window_s", "s"},
	{"policy.reconfigure_calls", "count"}, {"policy.reconfigure_s", "s"},
	{"policy.assignment_calls", "count"}, {"policy.assignment_s", "s"},
	{"pbb.decide_calls", "count"}, {"pbb.decide_s", "s"}, {"pbb.nodes", "count"}, {"static.decide_s", "s"},
	{"cluster.run_s", "s"}, {"cluster.self_s", "s"},
	{"placement.place_calls", "count"}, {"placement.busy_s", "s"},
	{"checkpoint.write_s", "s"}, {"checkpoint.read_s", "s"}, {"checkpoint.resume_s", "s"}, {"checkpoint.bytes", "bytes"},
	{"result.encode_s", "s"}, {"result.bytes", "bytes"},
	{"workloads.parse_s", "s"}, {"workloads.generate_s", "s"}, {"workloads.trace_write_s", "s"},
	{"workloads.trace_read_s", "s"}, {"workloads.arrivals", "count"}, {"workloads.trace_bytes", "bytes"},
	{"run.allocs", "count"},
	{"lifecycle.events", "count"}, {"lifecycle.migrations", "count"}, {"lifecycle.requeues", "count"},
	{"trace.wall_s", "s"}, {"trace.unaccounted_s", "s"}, {"trace.overhead_s", "s"},
}

func newLayers(rec *recorder, wall float64) *layers {
	l := &layers{metrics: map[string]metric{}, wall: wall, rec: rec}
	for _, m := range perLayerNames {
		l.metrics[m.name] = metric{0, m.unit}
	}
	l.set("trace.wall_s", wall)
	l.set("policy.busy_s", rec.policyBusy())
	l.set("policy.on_window_calls", float64(rec.onWindow.calls.Load()))
	l.set("policy.on_window_s", rec.onWindow.seconds())
	l.set("policy.reconfigure_calls", float64(rec.reconfigure.calls.Load()))
	l.set("policy.reconfigure_s", rec.reconfigure.seconds())
	l.set("policy.assignment_calls", float64(rec.assignment.calls.Load()))
	l.set("policy.assignment_s", rec.assignment.seconds())
	return l
}

// finish adds the unaccounted row and the tracing overhead against the
// untraced median wall time.
func (l *layers) finish(untracedWall float64, allocs float64) {
	var sum float64
	for _, r := range l.rows {
		sum += r.seconds
	}
	l.rows = append(l.rows, layerRow{"unaccounted", l.wall - sum})
	l.set("trace.unaccounted_s", l.wall-sum)
	l.set("trace.overhead_s", l.wall-untracedWall)
	l.set("run.allocs", allocs)
}

func (l *layers) print() {
	fmt.Printf("layer table (traced wall %.4f s):\n", l.wall)
	for _, r := range l.rows {
		fmt.Printf("  %-22s %10.4f s %6.1f%%\n", r.name, r.seconds, 100*r.seconds/l.wall)
	}
	names := make([]string, 0, len(l.metrics))
	for n := range l.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %.6g %s\n", n, l.metrics[n].Value, l.metrics[n].Unit)
	}
}

// gcPercent is the collector setting every run uses. At Go's default of
// 100 the heap may grow to twice the live data before a collection, so
// an operation's peak heap jumps by up to that factor with the
// collector's timing; at 50 it follows the live data closely enough
// that peak_heap_mib measures the program rather than the pacing, at a
// few percent of wall time.
const gcPercent = 50

func main() {
	debug.SetGCPercent(gcPercent)
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-closed | fleet-1k | chaos-resume")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure untraced operations for this long")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also run one traced operation and report per-layer metrics")
	flag.StringVar(&o.specDir, "specs", "bench/specs", "directory of the committed workload specs")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for scratch files and span output")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	cfg := harness.DefaultConfig()
	var rep *report
	var lay *layers
	switch o.workload {
	case "paper-closed":
		rep, lay, err = runPaper(newPaperClosed(cfg, workloads.SWorkloads(), workloads.Dynamic()), o)
	case "fleet-1k", "chaos-resume":
		var c *fleetCase
		if c, err = fleetWorkload(o.workload, cfg, o.specDir, o.workDir); err == nil {
			rep, lay, err = runFleet(c, o)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want paper-closed, fleet-1k or chaos-resume)", o.workload)
	}
	if err != nil {
		return err
	}
	if o.trace {
		lay.print()
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := lay.rec.writeSpans(path); err != nil {
			return err
		}
		fmt.Println("spans written to", path)
		rep.Metrics = lay.metrics
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// fleetWorkload defines the two cluster workloads at full size.
func fleetWorkload(name string, cfg harness.Config, specDir, workDir string) (*fleetCase, error) {
	c := &fleetCase{name: name, cfg: cfg, specPath: filepath.Join(specDir, name+".yaml"), workDir: workDir}
	switch name {
	case "fleet-1k":
		c.mix, c.placement = "512x11way,512x7way", "least"
	case "chaos-resume":
		// Two scheduled drains (one machine of each platform group),
		// seeded random failures, autoscaling that joins a machine when
		// the up machines' load reaches 0.3 of their cores and drains one
		// below 0.15 (between 48 and 80 up machines), and a checkpoint
		// every 2 simulated seconds.
		events, err := workloads.ParseFleetEvents("drain:t=3,m=5;drain:t=6,m=40")
		if err != nil {
			return nil, err
		}
		c.mix, c.placement = "32x11way,32x7way", "fair"
		c.chaos = &chaosConfig{
			events:          events,
			mtbf:            2,
			autoscale:       cluster.Autoscale{Interval: 1, Up: 0.3, Down: 0.15, Min: 48, Max: 80},
			checkpointEvery: 2,
		}
	default:
		return nil, fmt.Errorf("unknown cluster workload %q", name)
	}
	if _, err := os.Stat(c.specPath); err != nil {
		return nil, err
	}
	return c, nil
}

// runPaper measures paper-closed. Every run, traced or not, ends with
// the traced replica: the closed runs' work count (for
// app_ticks_per_s) comes from it, since the harness does not report it.
func runPaper(p *paperClosed, o options) (*report, *layers, error) {
	var t tally
	var s samples
	var in *paperInput
	for !enoughSetups(s.setup) {
		t0 := time.Now()
		in = p.setup(o.seed)
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}

	var first string
	var last paperResult
	var unf, stp float64
	start := time.Now()
	for len(s.wall) == 0 || time.Since(start).Seconds() < o.seconds {
		var res paperResult
		m, err := measure(func(*meter) (err error) { res, err = p.run(in); return err })
		if err == nil {
			unf, stp, err = res.summary()
		}
		var d string
		if err == nil {
			d, err = res.digest()
		}
		if err == nil && first != "" && d != first {
			err = fmt.Errorf("paper-closed: digest %s differs from the first operation's %s", d, first)
		}
		if t.op(err) {
			if first == "" {
				first = d
			}
			last = res
			s.add(m, 0)
		} else if t.attempted > 3 && t.failed == t.attempted {
			break
		}
	}
	fmt.Printf("paper-closed: %d operations, digest %s\n", len(s.wall), first)

	rec := newRecorder(fmt.Sprintf("paper-closed/seed%d", o.seed))
	t0 := time.Now()
	end := rec.begin("replica")
	traced, work, err := p.replica(in, rec)
	end()
	wall := time.Since(t0).Seconds()
	if err == nil && !reflect.DeepEqual(traced, last) {
		err = fmt.Errorf("paper-closed: the traced replica differs from the harness result")
	}
	t.op(err)
	for i := range s.ticks {
		s.ticks[i] = work.appTicks
	}

	l := newLayers(rec, wall)
	simRun := rec.total("sim.RunStatic") + rec.total("sim.RunDynamic")
	policy := rec.policyBusy()
	pbb := rec.pbbDecide.seconds()
	static := rec.staticDecide.seconds()
	l.set("sim.run_s", simRun)
	l.set("sim.self_s", simRun-policy)
	l.set("sim.app_ticks", work.appTicks)
	l.set("sim.repartitions", float64(work.repartitions))
	l.set("pbb.decide_calls", float64(rec.pbbDecide.calls.Load()))
	l.set("pbb.decide_s", pbb)
	l.set("pbb.nodes", float64(rec.pbbNodes.Load()))
	l.set("static.decide_s", static)
	l.rows = []layerRow{{"sim (self)", simRun - policy}, {"policy", policy}, {"static (excl. pbb)", static - pbb}, {"pbb", pbb}}
	l.finish(median(s.wall), median(s.allocs))
	return e2e(t, s, unf, stp), l, nil
}

// runFleet measures fleet-1k or chaos-resume: each operation sets up
// afresh (spec, trace, fleet and policies; timed as setup_s) and then
// runs. With --trace 1 one traced operation follows.
func runFleet(c *fleetCase, o options) (*report, *layers, error) {
	var t tally
	var s samples
	var first string
	var last *cluster.Result
	var unf, stp float64
	start := time.Now()
	for len(s.wall) == 0 || time.Since(start).Seconds() < o.seconds {
		t0 := time.Now()
		in, err := c.setup(o.seed, c.legs(), nil)
		if err != nil {
			return nil, nil, err
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		var out *fleetOutcome
		m, err := measure(func(m *meter) (err error) { out, err = c.run(in, 0, nil, true, m); return err })
		var d string
		var ticks float64
		if err == nil {
			d, ticks, err = c.verify(in, out)
		}
		if err == nil && first != "" && d != first {
			err = fmt.Errorf("%s: digest %s differs from the first operation's %s", c.name, d, first)
		}
		if t.op(err) {
			if first == "" {
				first = d
			}
			// Only the final result is kept, for the traced run to be
			// compared with; an earlier one would inflate the next
			// operation's peak heap.
			if o.trace && time.Since(start).Seconds() >= o.seconds {
				last = out.res
			}
			unf, stp = out.res.Series.MeanUnfairness(), out.res.Series.MeanSTP()
			s.add(m, ticks)
		} else if t.attempted > 3 && t.failed == t.attempted {
			break
		}
	}
	for !enoughSetups(s.setup) {
		t0 := time.Now()
		if _, err := c.setup(o.seed, c.legs(), nil); err != nil {
			return nil, nil, err
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}
	fmt.Printf("%s: %d operations, digest %s\n", c.name, len(s.wall), first)
	rep := e2e(t, s, unf, stp)
	if !o.trace {
		return rep, nil, nil
	}
	l, err := c.traced(o, &t, first, last, median(s.wall), median(s.allocs))
	if err != nil {
		return nil, nil, err
	}
	rep.Attempted, rep.Failed, rep.Correct = t.attempted, t.failed, t.failed == 0
	return rep, l, nil
}

// verify checks one operation's outcome and returns its digest and
// active app-ticks.
func (c *fleetCase) verify(in *fleetInput, out *fleetOutcome) (string, float64, error) {
	if err := c.check(in, out.res); err != nil {
		return "", 0, err
	}
	ticks, err := appTicks(out.res, in.fleet[0])
	if err != nil {
		return "", 0, err
	}
	if c.chaos == nil {
		d, err := fleetDigest(out.res)
		return d, ticks, err
	}
	if !out.resumedEqual {
		return "", 0, fmt.Errorf("%s: the resumed run differs from the uninterrupted run", c.name)
	}
	return sha(out.encoded), ticks, nil
}

// traced runs one decorated operation (and, for chaos-resume, the same
// cluster run with checkpoints off, to time checkpoint writing by
// difference) and builds the layer view.
func (c *fleetCase) traced(o options, t *tally, digest string, untraced *cluster.Result, untracedWall, allocs float64) (*layers, error) {
	rec := newRecorder(fmt.Sprintf("%s/seed%d", c.name, o.seed))
	legs := c.legs()
	if c.chaos != nil {
		legs++ // the checkpoint-free leg
	}
	end := rec.begin("setup")
	in, err := c.setup(o.seed, legs, rec)
	end()
	if err != nil {
		return nil, err
	}
	var out *fleetOutcome
	end = rec.begin("operation")
	m, err := measure(func(m *meter) (err error) { out, err = c.run(in, 0, rec, true, m); return err })
	end()
	wall := m.wall
	var d string
	var ticks float64
	if err == nil {
		d, ticks, err = c.verify(in, out)
	}
	if err == nil && (d != digest || !reflect.DeepEqual(out.res, untraced)) {
		err = fmt.Errorf("%s: the traced run differs from the untraced run", c.name)
	}
	l := newLayers(rec, wall)
	if !t.op(err) || out == nil {
		l.finish(untracedWall, allocs)
		return l, nil
	}
	untraced = nil

	clusterRun := rec.total("cluster.Run")
	var ckptWrite float64
	if c.chaos != nil {
		recOff := newRecorder(rec.id + "/no-checkpoints")
		end = recOff.begin("operation")
		off, err := c.run(in, 2, recOff, false, nil)
		end()
		if err == nil && !reflect.DeepEqual(off.res, out.res) {
			err = fmt.Errorf("%s: the run without checkpoints differs from the run with them", c.name)
		}
		t.op(err)
		ckptWrite = clusterRun - recOff.total("cluster.Run")
	}
	place, policy := rec.place.seconds(), rec.policyBusy()
	res := out.res
	l.set("sim.app_ticks", ticks)
	l.set("sim.repartitions", float64(res.Repartitions))
	l.set("cluster.run_s", clusterRun)
	l.set("cluster.self_s", clusterRun-place-policy-ckptWrite)
	l.set("placement.place_calls", float64(rec.place.calls.Load()))
	l.set("placement.busy_s", place)
	l.set("workloads.parse_s", rec.total("workloads.LoadSpec"))
	l.set("workloads.generate_s", rec.total("workloads.Generate"))
	l.set("workloads.trace_write_s", rec.total("workloads.WriteTraceFile"))
	l.set("workloads.trace_read_s", rec.total("workloads.ReadTraceFile"))
	l.set("workloads.arrivals", float64(in.nArrivals))
	l.set("workloads.trace_bytes", float64(in.traceBytes))
	l.rows = []layerRow{{"cluster (self, kernel)", clusterRun - place - policy - ckptWrite}, {"placement", place}, {"policy", policy}}
	if c.chaos != nil {
		read, resume, encode := rec.total("cluster.ReadCheckpoint"), rec.total("cluster.Run.resume"), rec.total("result.encode")
		l.set("checkpoint.write_s", ckptWrite)
		l.set("checkpoint.read_s", read)
		l.set("checkpoint.resume_s", resume)
		l.set("checkpoint.bytes", float64(out.ckptBytes))
		l.set("result.encode_s", encode)
		l.set("result.bytes", float64(len(out.encoded)))
		l.rows = append(l.rows, layerRow{"checkpoint write", ckptWrite}, layerRow{"checkpoint read", read},
			layerRow{"checkpoint resume", resume}, layerRow{"result encode", encode})
	}
	if lc := res.Lifecycle; lc != nil {
		l.set("lifecycle.events", float64(lc.Events))
		l.set("lifecycle.migrations", float64(lc.Migrations))
		l.set("lifecycle.requeues", float64(lc.Requeues))
	}
	l.finish(untracedWall, allocs)
	return l, nil
}

// e2e builds the end-to-end report from the untraced operations.
func e2e(t tally, s samples, unf, stp float64) *report {
	var perS []float64
	for i, w := range s.wall {
		perS = append(perS, s.ticks[i]/w)
	}
	m := map[string]metric{
		"wall_s":          {median(s.wall), "s"},
		"setup_s":         {median(s.setup), "s"},
		"app_ticks_per_s": {median(perS), "ticks/s"},
		"peak_heap_mib":   {median(s.peak), "MiB"},
		"unfairness":      {unf, "ratio"},
		"stp":             {stp, "ratio"},
	}
	for k, v := range m {
		if v.Value != v.Value { // NaN: no operation succeeded
			m[k] = metric{0, v.Unit}
		}
	}
	fmt.Printf("operations: wall_s %.4g, peak_heap_mib %.4g; %d set-ups\n", s.wall, s.peak, len(s.setup))
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

package sim

// Tests for the event-horizon fast path (advanceHorizon) and the
// two-generation equilibrium memo: the batched and legacy per-tick
// advancement must be bit-identical on every field of every result, for
// every scenario shape, machine shape and tick granularity, and cache
// eviction must never dump the equilibrium working set.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// horizonPolicy mirrors harness.NewDynamicPolicy without importing the
// harness (which would cycle back into this package), scaling the LFOC
// and Dunn window cadences like the harness does at scale 50.
func horizonPolicy(t testing.TB, name string, plat *machine.Platform) Dynamic {
	t.Helper()
	switch name {
	case "stock":
		return policy.NewStockDynamic(plat.Ways)
	case "dunn":
		d := policy.NewDunnDynamic(plat.Ways)
		d.SetWindow(2_000_000)
		return d
	case "lfoc":
		params := core.DefaultParams(plat.Ways)
		params.NormalWindowInsns = 2_000_000
		params.SamplingWindowInsns = 200_000
		ctrl, err := core.NewController(params, plat.WayBytes)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	default:
		t.Fatalf("unknown policy %q", name)
		return nil
	}
}

// uniformTrace builds an explicit open trace: count arrivals every
// interval seconds, cycling through the pool.
func uniformTrace(t testing.TB, pool []*appmodel.Spec, interval float64, count int) *scenario.Open {
	t.Helper()
	arrivals := make([]scenario.Arrival, count)
	for i := range arrivals {
		arrivals[i] = scenario.Arrival{Time: float64(i) * interval, Spec: pool[i%len(pool)]}
	}
	scn, err := scenario.NewTrace("uniform", nil, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestEventHorizonDifferential is the randomized differential pin: the
// batched event-horizon path must reproduce the legacy per-tick path
// field-identically across seeds, arrival processes, machine shapes and
// tick granularities. Run under -race in CI.
func TestEventHorizonDifferential(t *testing.T) {
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06", "omnetpp06")
	plats := []*machine.Platform{machine.Skylake(), machine.Small(7, 4)}
	policies := []string{"lfoc", "dunn", "stock"}
	ticksPerPeriod := []int{50, 250, 617}
	seeds := []int64{3, 11}

	caseIdx := 0
	for _, plat := range plats {
		for _, tpp := range ticksPerPeriod {
			for _, seed := range seeds {
				// Rotate the policy and arrival process with the case
				// index: every (plat, ticks) cell still sees at least one
				// of each without running the full cross product.
				polName := policies[caseIdx%len(policies)]
				poisson := caseIdx%2 == 0
				caseIdx++
				name := fmt.Sprintf("%s-t%d-seed%d-%s", plat.Name, tpp, seed, polName)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Plat:           plat,
						TargetInsns:    300_000_000 + uint64(seed)*50_000_000,
						PolicyPeriod:   10 * time.Millisecond,
						TicksPerPeriod: tpp,
					}
					var scn *scenario.Open
					if poisson {
						var err error
						scn, err = scenario.NewPoisson("diff", pool, 6, 1.5, seed)
						if err != nil {
							t.Fatal(err)
						}
					} else {
						scn = uniformTrace(t, pool, 0.11, 10+int(seed))
					}
					run := func(legacy bool) *OpenResult {
						c := cfg
						c.noEventHorizon = legacy
						res, err := RunOpen(c, scn, horizonPolicy(t, polName, plat))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					fast, legacy := run(false), run(true)
					if !reflect.DeepEqual(fast, legacy) {
						t.Errorf("batched and legacy open runs diverge:\nfast   %+v\nlegacy %+v", fast, legacy)
					}
				})
			}
		}
	}
}

// TestEventHorizonDifferentialClosed pins the closed methodology the
// same way, including the identity-reset restart flavour.
func TestEventHorizonDifferentialClosed(t *testing.T) {
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	for _, tpp := range []int{100, 250} {
		for _, reset := range []bool{false, true} {
			t.Run(fmt.Sprintf("ticks%d-reset%v", tpp, reset), func(t *testing.T) {
				cfg := testConfig()
				cfg.TargetInsns = 500_000_000
				cfg.PolicyPeriod = 10 * time.Millisecond
				cfg.TicksPerPeriod = tpp
				run := func(legacy bool) *Result {
					c := cfg
					c.noEventHorizon = legacy
					scn := scenario.NewClosed(specs, 3)
					scn.ResetIdentityOnRestart = reset
					res, err := RunClosed(c, scn, horizonPolicy(t, "lfoc", c.Plat))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fast, legacy := run(false), run(true)
				if !reflect.DeepEqual(fast, legacy) {
					t.Errorf("batched and legacy closed runs diverge:\nfast   %+v\nlegacy %+v", fast, legacy)
				}
			})
		}
	}
}

// TestEventHorizonPausePoints pins the cluster contract: stepping a
// machine through arbitrary AdvanceTo pause points with the fast path on
// must equal one uninterrupted batched run (the horizon must stop at the
// pause point, not batch across it).
func TestEventHorizonPausePoints(t *testing.T) {
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	scn, err := scenario.NewPoisson("pause", pool, 5, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plat:         machine.Small(7, 4),
		TargetInsns:  400_000_000,
		PolicyPeriod: 10 * time.Millisecond,
	}
	whole, err := RunOpen(cfg, scn, horizonPolicy(t, "lfoc", cfg.Plat))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewOpenMachine(cfg, horizonPolicy(t, "lfoc", cfg.Plat), "pause", nil, scn.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	for i, arr := range scn.Arrivals() {
		// Irregular pause points: before some injections, advance to an
		// extra off-event time too.
		if i%3 == 1 {
			if err := m.AdvanceTo(arr.Time * 0.9); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AdvanceTo(arr.Time); err != nil {
			t.Fatal(err)
		}
		if err := m.Inject(arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	stepped := m.Result()
	if !reflect.DeepEqual(whole, stepped) {
		t.Errorf("stepped machine diverges from uninterrupted run:\nwhole   %+v\nstepped %+v", whole, stepped)
	}
}

// equilStats runs an open churn scenario through a kernel with the
// given equilibrium-cache capacity and returns the result plus the
// cache hit rate.
func equilStats(t *testing.T, max int) (*OpenResult, float64) {
	t.Helper()
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	scn, err := scenario.NewPoisson("equil", pool, 6, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plat:         machine.Small(7, 4),
		TargetInsns:  300_000_000,
		PolicyPeriod: 10 * time.Millisecond,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.MetricsWindow = cfg.EffectiveMetricsWindow()
	k, err := newKernel(cfg, scn, horizonPolicy(t, "lfoc", cfg.Plat))
	if err != nil {
		t.Fatal(err)
	}
	k.equilMax = max
	if err := k.run(); err != nil {
		t.Fatal(err)
	}
	if k.equilHits+k.equilMiss == 0 {
		t.Fatal("no equilibrium lookups")
	}
	return buildOpenResult(k, scn.Name()), float64(k.equilHits) / float64(k.equilHits+k.equilMiss)
}

// TestEquilCacheRotationKeepsWorkingSet pins the two-generation
// eviction: even under absurd pressure (capacity 2, so the cache
// rotates on almost every distinct configuration) the current working
// set keeps hitting, because rotation moves the hot generation to the
// cold one and a touch promotes it back — unlike the wholesale clear
// this replaced, which dumped the live configuration and forced
// periodic full re-solve storms. Results must be identical regardless
// of eviction, since memoized fixed points are deterministic.
func TestEquilCacheRotationKeepsWorkingSet(t *testing.T) {
	unboundedRes, unboundedRate := equilStats(t, 1<<30)
	pressuredRes, pressuredRate := equilStats(t, 2)
	if !reflect.DeepEqual(unboundedRes, pressuredRes) {
		t.Error("eviction changed simulation results")
	}
	if unboundedRate < 0.5 {
		t.Errorf("churn run should be memo-friendly, hit rate %.3f", unboundedRate)
	}
	if pressuredRate < unboundedRate-0.03 {
		t.Errorf("eviction dumped the working set: hit rate %.3f under pressure vs %.3f unbounded",
			pressuredRate, unboundedRate)
	}
}

// TestCarryBatchMatchesFloatTicks is the focused exactness pin for the
// integer carry advancement (carryGrid/carryRun/carryBatch): for random
// steps across magnitudes — including sub-1 steps and binade edges that
// must take the float fallback — and random starting carries, a batched
// advance must reproduce the legacy per-tick float loop bit-for-bit:
// same total output, same final carry.
func TestCarryBatchMatchesFloatTicks(t *testing.T) {
	f := func(stepBits uint32, fracBits uint16, ticksRaw uint16, scale uint8) bool {
		// Steps spread over magnitudes 2^-8 .. 2^24-ish.
		step := float64(stepBits) / 256 * math.Pow(2, float64(scale%16))
		frac := float64(fracBits) / 65536 // [0,1)
		ticks := int(ticksRaw)%2000 + 1

		// Reference: the legacy per-tick float loop.
		refFrac := frac
		var refSum uint64
		for i := 0; i < ticks; i++ {
			refFrac += step
			v := uint64(refFrac)
			refFrac -= float64(v)
			refSum += v
		}

		g := carryGrid(step)
		gotFrac := frac
		gotSum := carryBatch(&gotFrac, step, &g, ticks)
		return gotSum == refSum && math.Float64bits(gotFrac) == math.Float64bits(refFrac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCarryGridEdges pins the fallback decisions: sub-1 steps, binade
// edges and huge steps must refuse the integer path rather than risk a
// rounding divergence.
func TestCarryGridEdges(t *testing.T) {
	for _, step := range []float64{0, 0.25, 0.999999, 1 << 52, math.Inf(1), math.NaN()} {
		if g := carryGrid(step); g.ok {
			t.Errorf("step %v must take the float path", step)
		}
	}
	// ⌊step⌋+2 crossing the binade: step+1 could round past 2^17.
	if g := carryGrid(131071.5); g.ok {
		t.Error("binade-edge step must take the float path")
	}
	if g := carryGrid(80000.25); !g.ok || g.base != 80000 {
		t.Errorf("well-formed step rejected: %+v", g)
	}
}

// tickLoopClock is the reference clock advance: one float add per tick,
// the per-tick loop advanceClock replaces, verbatim.
func tickLoopClock(s, dt float64, n int, stop, maxTime float64) (float64, int) {
	ticks := 0
	for {
		s += dt
		ticks++
		if ticks >= n || s >= stop || s > maxTime {
			break
		}
	}
	return s, ticks
}

// checkClock compares advanceClock with the tick loop bit for bit.
func checkClock(t *testing.T, s, dt float64, n int, stop, maxTime float64) {
	t.Helper()
	wantS, wantN := tickLoopClock(s, dt, n, stop, maxTime)
	gotS, gotN := advanceClock(s, dt, n, stop, maxTime)
	if math.Float64bits(gotS) != math.Float64bits(wantS) || gotN != wantN {
		t.Fatalf("advanceClock(%v, %v, %d, %v, %v) = (%v, %d), tick loop gives (%v, %d)",
			s, dt, n, stop, maxTime, gotS, gotN, wantS, wantN)
	}
}

// TestAdvanceClockMatchesTickLoop is the differential pin of the
// closed-form clock: the kernel's tick lengths (Scale 1/50/1000,
// TicksPerPeriod 250/1000) and arbitrary ones, starts on the tick grid,
// just below a power of two or anywhere, and each exit — n, stop or
// maxTime — binding either at an arbitrary value or exactly on a value
// the loop reaches, with the others inactive (+Inf, NaN, a later bound
// or n up to 1<<30); bounds on a reached value are also tried one ulp
// to either side. Constructed cases cover s = 0, the binade edges
// and exact half-ulp ties.
func TestAdvanceClockMatchesTickLoop(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	ulp1 := math.Ldexp(1, -52) // ulp of [1, 2)

	// Half-ulp ties: from an odd grid point (the first step differs from
	// the rest), with q = 0 (the clock then stalls), and a step that is
	// exact in [1, 2) but ties once the clock crosses into [2, 4).
	for _, c := range []struct{ s, dt float64 }{
		{1 + ulp1, 1.5 * ulp1},
		{1 + ulp1, 0.5 * ulp1},
		{1 + ulp1, 2.5 * ulp1},
		{1, 2.5 * ulp1},
		{2 - 64*ulp1, 3 * ulp1},
		{2 - 63*ulp1, 5 * ulp1},
	} {
		for _, n := range []int{1, 2, 3, 100, 100_000} {
			checkClock(t, c.s, c.dt, n, inf, inf)
		}
		// n stays moderate: with q = 0 no tick ever passes v.
		v, _ := tickLoopClock(c.s, c.dt, 1000, inf, inf)
		checkClock(t, c.s, c.dt, 1<<20, v, inf)
		checkClock(t, c.s, c.dt, 1<<20, inf, v)
	}
	// s = 0, subnormal steps, stalled clocks and degenerate bounds.
	for _, c := range []struct {
		s, dt         float64
		n             int
		stop, maxTime float64
	}{
		{0, 4e-5, 1 << 30, 1, inf},
		{0, 4e-5, 1 << 30, inf, 20},
		{0, 0, 1000, inf, inf},
		{0, 5e-324, 100_000, inf, inf},
		{1e-310, 3e-320, 100_000, inf, inf},
		{1e-310, 1e-312, 1 << 30, 3e-308, inf},
		{3600, 1e-17, 100_000, inf, inf},
		{1, 4e-5, 0, inf, inf},
		{1, 4e-5, -5, inf, inf},
		{1, 4e-5, 1 << 30, 0.5, inf},
		{1, 4e-5, 1 << 30, inf, 0.5},
		{1, 4e-5, 1 << 30, nan, 1.5},
		{1, 4e-5, 100_000, nan, nan},
		{0, 4e-5, 1 << 30, 4e-5, inf},
		{0, 4e-5, 1 << 30, inf, 4e-5},
		{2 - 4e-5, 4e-5, 1 << 30, 2, inf},
		{2 - 4e-5, 4e-5, 1 << 30, inf, 2},
		{-1, 4e-5, 100_000, inf, inf},
		{1, -4e-5, 100_000, inf, inf},
		{inf, 4e-5, 10, inf, inf},
	} {
		checkClock(t, c.s, c.dt, c.n, c.stop, c.maxTime)
	}

	var dts []float64
	for _, scale := range []int64{1, 50, 1000} {
		for _, tpp := range []int{250, 1000} {
			period := time.Duration(int64(500*time.Millisecond) / scale)
			dts = append(dts, period.Seconds()/float64(tpp))
		}
	}
	rng := rand.New(rand.NewSource(13))
	cases := 20_000
	if testing.Short() {
		cases = 2000
	}
	for i := 0; i < cases; i++ {
		dt := dts[rng.Intn(len(dts))]
		if rng.Intn(4) == 0 {
			dt = math.Ldexp(1+rng.Float64(), -rng.Intn(30))
		}
		// budget bounds the ticks the reference loop runs.
		budget := 1 + rng.Intn(1<<rng.Intn(19))
		var s float64
		switch rng.Intn(4) {
		case 0:
			s = 0
		case 1: // on the tick grid, then some ticks of clock drift
			s, _ = tickLoopClock(float64(rng.Intn(1<<20))*dt, dt, 1+rng.Intn(1000), inf, inf)
		case 2: // just below a power of two: the run crosses binades
			s = math.Max(0, math.Ldexp(1, rng.Intn(24)-12)-float64(1+rng.Intn(budget))*dt)
		default:
			s = rng.Float64() * 3600
		}
		// A bound on a value the loop reaches, or one ulp to either side.
		reached, _ := tickLoopClock(s, dt, budget, inf, inf)
		reached = []float64{reached, math.Nextafter(reached, inf), math.Nextafter(reached, 0)}[rng.Intn(3)]
		arbitrary := s + rng.Float64()*float64(budget)*dt
		// Inactive bounds: none of them ends the run before the binding one.
		slack := []float64{inf, nan, s + 2*float64(budget+2)*dt}
		n := []int{budget + 1 + rng.Intn(1<<20), 1 << 30}[rng.Intn(2)]
		stop, maxTime := slack[rng.Intn(3)], slack[rng.Intn(3)]
		switch rng.Intn(5) {
		case 0:
			n = budget
		case 1:
			stop = arbitrary
		case 2:
			stop = reached
		case 3:
			maxTime = arbitrary
		default:
			maxTime = reached
		}
		checkClock(t, s, dt, n, stop, maxTime)
	}
}

// FuzzAdvanceClock checks advanceClock against the tick loop on
// arbitrary float inputs; n is folded below 1<<20 so the reference
// loop always ends quickly.
func FuzzAdvanceClock(f *testing.F) {
	ulp1 := math.Ldexp(1, -52)
	f.Add(0.0, 4e-5, int64(1<<30), 20.0, 3600.0)
	f.Add(19.99, 4e-5, int64(250), 20.0, 3600.0)
	f.Add(1+ulp1, 1.5*ulp1, int64(1000), math.Inf(1), math.Inf(1))
	f.Add(2-64*ulp1, 3*ulp1, int64(1000), math.NaN(), 2.0)
	f.Add(1e-310, 1e-312, int64(1<<19), 3e-308, math.Inf(1))
	f.Fuzz(func(t *testing.T, s, dt float64, n int64, stop, maxTime float64) {
		checkClock(t, s, dt, int(n%(1<<20)), stop, maxTime)
	})
}

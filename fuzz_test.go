// Native fuzz targets for every format the CLIs read from user input:
// workload specs (YAML and JSON), arrival traces, fleet event
// schedules, machine-mix strings and cluster checkpoints. The contract
// under fuzzing is uniform — a reader either succeeds or returns an
// error; it never panics — and successful parses must satisfy the
// format's own invariants (a reparse of a successful parse cannot fail;
// an accepted checkpoint resumes to a result or an error). Seed corpora
// come from the shipped example specs, the flag syntax the
// documentation advertises and a checkpoint of a small lifecycle run.
//
// CI runs these with a short -fuzztime as a smoke test; run them longer
// locally with e.g.:
//
//	go test -fuzz=FuzzParseWorkloadSpec -fuzztime=60s .
package lfoc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	lfoc "github.com/faircache/lfoc"
	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

func FuzzParseWorkloadSpec(f *testing.F) {
	for _, name := range []string{
		"bursty-batch.yaml", "diurnal-bursty.yaml", "diurnal-web.yaml", "failure-under-load.yaml",
	} {
		data, err := os.ReadFile(filepath.Join("examples", "specs", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, true)
	}
	f.Add([]byte(`{"spec_version":1,"name":"j","seed":1,"duration_seconds":1,"cohorts":[]}`), false)
	f.Fuzz(func(t *testing.T, data []byte, yaml bool) {
		ext := ".json"
		if yaml {
			ext = ".yaml"
		}
		spec, err := lfoc.ParseWorkloadSpec(data, ext)
		if err != nil {
			return
		}
		if spec == nil {
			t.Fatal("nil spec with nil error")
		}
	})
}

func FuzzReadArrivalTrace(f *testing.F) {
	f.Add([]byte("lfoc-trace v1\nname seeded\nscale 50\narrivals 1\n0.5 lbm06 1\n"))
	f.Add([]byte("lfoc-trace v1\n# comment\nname x\nscale 1\narrivals 0\n"))
	f.Add([]byte("lfoc-trace v2\nname future\nscale 1\narrivals 0\n"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := workloads.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful parse must round-trip through the writer and
		// reparse — the format's own invariant.
		var buf bytes.Buffer
		if err := workloads.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("reserialize accepted trace: %v", err)
		}
		if _, err := workloads.ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("reparse written trace: %v", err)
		}
	})
}

func FuzzParseFleetEvents(f *testing.F) {
	f.Add("drain:t=5,m=1;fail:t=7,m=0;join:t=9")
	f.Add("join:t=0.5")
	f.Add("fail:t=1.5,m=2")
	f.Add("")
	f.Add("drain:t=;fail")
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := lfoc.ParseFleetEvents(s)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if ev.Time < 0 {
				t.Fatalf("accepted event with negative time: %+v", ev)
			}
		}
	})
}

func FuzzParseMachineMix(f *testing.F) {
	f.Add("2x11way,2x7way")
	f.Add("1x4way2c")
	f.Add("3x20way16c,1x11way")
	f.Add("")
	f.Add("0x0way")
	f.Fuzz(func(t *testing.T, s string) {
		base := harness.DefaultConfig().SimConfig()
		fleet, err := lfoc.ParseMachineMix(s, base)
		if err != nil {
			return
		}
		for i, mc := range fleet {
			if mc.Plat == nil || mc.Plat.Ways <= 0 || mc.Plat.Cores <= 0 {
				t.Fatalf("accepted machine %d with invalid platform", i)
			}
		}
	})
}

// fuzzCheckpointRun is the small lifecycle run FuzzReadCheckpoint
// checkpoints and resumes: two machines, a drain, a join and a seeded
// MTBF process over a one-second Poisson trace.
func fuzzCheckpointRun(tb testing.TB) (cluster.Config, *scenario.Open, func(int) (sim.Dynamic, error)) {
	plat := machine.Small(8, 4)
	stock := func(int) (sim.Dynamic, error) { return policy.NewStockDynamic(plat.Ways), nil }
	cfg := cluster.Config{
		Sim:       sim.Config{Plat: plat, TargetInsns: 500_000_000, PolicyPeriod: 100 * time.Millisecond},
		Machines:  2,
		Placement: cluster.NewRoundRobin(),
		Workers:   1,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{
				{Time: 0.3, Kind: cluster.MachineDrain, Machine: 1},
				{Time: 0.5, Kind: cluster.MachineJoin},
			},
			MTBF:        0.8,
			FailureSeed: 5,
			JoinPolicy:  func(i int, _ sim.Config) (sim.Dynamic, error) { return stock(i) },
		},
		RecordAssignments: true,
	}
	specs := []*appmodel.Spec{profiles.MustGet("xalancbmk06"), profiles.MustGet("lbm06"), profiles.MustGet("povray06")}
	scn, err := scenario.NewPoisson("fuzz-ckpt", specs, 8, 1, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, scn, stock
}

// wrapCheckpointPayload frames payload bytes as a checkpoint file with a
// matching checksum, so mutations reach the payload decoder and the
// resume path instead of stopping at the checksum.
func wrapCheckpointPayload(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return []byte(fmt.Sprintf(`{"magic":"lfoc-checkpoint","version":%d,"sha256":%q,"payload":%s}`,
		cluster.CheckpointVersion, hex.EncodeToString(sum[:]), payload))
}

func FuzzReadCheckpoint(f *testing.F) {
	cfg, scn, factory := fuzzCheckpointRun(f)
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	cfg.StopAfter = 0.6
	cfg.Checkpoint = &cluster.CheckpointConfig{Path: path, Every: 0.2}
	if _, err := cluster.Run(cfg, scn, factory); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var wrapper struct {
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(file, &wrapper); err != nil {
		f.Fatal(err)
	}
	f.Add(file, false)
	f.Add([]byte(wrapper.Payload), true)
	f.Add([]byte(`{}`), true)
	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		if wrap {
			data = wrapCheckpointPayload(data)
		}
		p := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := cluster.ReadCheckpoint(p)
		if err != nil {
			return
		}
		cfg, scn, factory := fuzzCheckpointRun(t)
		cfg.Resume = ck
		res, err := cluster.Run(cfg, scn, factory)
		if err == nil && res == nil {
			t.Fatal("resume returned neither a result nor an error")
		}
	})
}

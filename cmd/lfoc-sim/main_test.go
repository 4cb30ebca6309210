package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/cluster"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// cliBinary builds the command once per test binary and returns its
// path; TestMain removes it.
func cliBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "lfoc-sim-test"); buildErr != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, "lfoc-sim"), ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, "lfoc-sim")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// runJSON runs the command with args plus -json and decodes the result
// into v.
func runJSON(t *testing.T, v any, args ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	if out, err := exec.Command(cliBinary(t), append(args, "-json", path)...).CombinedOutput(); err != nil {
		t.Fatalf("lfoc-sim %v: %v\n%s", args, err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// A sweep cell must honour every fleet flag a single run does: the
// -machine-mix fleet under -spec-sweep, and -autoscale under -sweep.
// Each cell is checked against the single run with the same flags.
func TestSweepHonoursFleetFlags(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "specs", "diurnal-web.yaml")
	least := []string{"-placement", "least", "-policy", "lfoc"}
	for _, tc := range []struct {
		name              string
		sweep, run, fleet []string
		autoscale         bool
	}{
		{"spec sweep over a machine mix", []string{"-spec-sweep", spec}, []string{"-workload-spec", spec},
			append([]string{"-machine-mix", "2x11way,2x7way"}, least...), false},
		{"sweep with autoscale", []string{"-workload", "S1", "-sweep", "4", "-duration", "3"},
			[]string{"-workload", "S1", "-arrivals", "poisson:4", "-duration", "3"},
			append([]string{"-machines", "4", "-autoscale", "i=0.5,up=0.3,down=0.15,min=2,max=6"}, least...), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sw sweepJSON
			runJSON(t, &sw, append(tc.sweep, tc.fleet...)...)
			var single clusterJSON
			runJSON(t, &single, append(tc.run, tc.fleet...)...)
			if sw.Machines != 4 || len(sw.Rows) != 1 {
				t.Fatalf("sweep over %d machines with %d rows, want 4 machines and 1 row", sw.Machines, len(sw.Rows))
			}
			row, res := sw.Rows[0], single.Result
			var perMachine []int
			for _, m := range res.PerMachine {
				perMachine = append(perMachine, m.Arrivals)
			}
			if !reflect.DeepEqual(row.MachineArrivals, perMachine) || row.Departed != res.Departed ||
				row.Remaining != res.Remaining || row.MeanSlowdown != res.MeanSlowdown || row.SimSeconds != res.SimSeconds {
				t.Errorf("sweep cell %+v differs from the single run (per-machine %v, departed %d, remaining %d, slowdown %v, simulated %v)",
					row, perMachine, res.Departed, res.Remaining, res.MeanSlowdown, res.SimSeconds)
			}
			if l := row.Lifecycle; tc.autoscale != (l != nil && l.Drains > 0 && l.AutoscaleActions > 0) {
				t.Fatalf("sweep lifecycle %+v, want autoscale drains: %v", l, tc.autoscale)
			}
			if l := row.Lifecycle; l != nil && (l.Drains != res.Lifecycle.Drains ||
				l.Joins != res.Lifecycle.Joins || l.Availability != res.Lifecycle.Availability) {
				t.Errorf("sweep lifecycle %+v, single run %+v", l, res.Lifecycle)
			}
		})
	}
}

// Flags a sweep cannot honour are usage errors, not silently dropped.
func TestSweepRejectsSingleRunFlags(t *testing.T) {
	bin := cliBinary(t)
	for _, args := range [][]string{
		{"-workload", "S1", "-sweep", "4", "-machines", "2", "-record-assignments"},
		{"-workload", "S1", "-sweep", "4", "-machines", "2", "-stop-after", "1"},
		{"-spec-sweep", filepath.Join("..", "..", "examples", "specs", "diurnal-web.yaml"), "-seed", "3"},
	} {
		err := exec.Command(bin, args...).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("lfoc-sim %v: %v, want usage error (exit 2)", args, err)
		}
	}
}

// The end-to-end crash-safety contract: SIGINT a running cluster run,
// and the process exits 130 after emitting a partial JSON result marked
// "interrupted": true and a valid, resumable checkpoint; resuming that
// checkpoint completes cleanly.
func TestInterruptWritesCheckpointAndPartialResult(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a child process")
	}
	dir := t.TempDir()
	bin := cliBinary(t)

	ckpt := filepath.Join(dir, "run.ckpt")
	jsonOut := filepath.Join(dir, "run.json")
	args := []string{
		"-workload", "S3", "-arrivals", "poisson:2", "-duration", "20000", "-seed", "7",
		"-machines", "3", "-placement", "least", "-policy", "stock",
		"-checkpoint", ckpt, "-checkpoint-every", "5", "-json", jsonOut,
	}
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Interrupt once the first periodic checkpoint proves the run is
	// well underway.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run exited %v, want exit code 130", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("interrupted run exited %d, want 130", code)
	}

	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatalf("interrupted run wrote no JSON result: %v", err)
	}
	var res struct {
		Interrupted bool `json:"interrupted"`
		Departed    int  `json:"departed"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("partial result is not valid JSON: %v", err)
	}
	if !res.Interrupted {
		t.Error(`partial result lacks "interrupted": true`)
	}

	ck, err := cluster.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("interrupted run left no valid checkpoint: %v", err)
	}
	if ck.NextArrival() <= 0 {
		t.Errorf("checkpoint at arrival %d, want progress before the interrupt", ck.NextArrival())
	}

	// The checkpoint must actually resume: same run flags plus -resume,
	// with a near -stop-after boundary so the test stays fast.
	resume := exec.Command(bin,
		"-workload", "S3", "-arrivals", "poisson:2", "-duration", "20000", "-seed", "7",
		"-machines", "3", "-placement", "least", "-policy", "stock",
		"-resume", ckpt, "-stop-after", "1",
		"-json", filepath.Join(dir, "resumed.json"))
	if out, err := resume.CombinedOutput(); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, out)
	}
}

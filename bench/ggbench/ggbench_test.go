package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke builds ggbench and ggcd and runs every workload for one
// second at seed 1, untraced and traced twice. It checks that each run is
// correct and prints exactly the metrics BENCHMARK.json names, with their
// units, that the traced run's exact counts repeat, and that it writes a
// Perfetto trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs every workload")
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, ggbench has %d", len(spec.Workloads), len(workloads))
	}

	dir := t.TempDir()
	bench, ggcd := filepath.Join(dir, "ggbench"), filepath.Join(dir, "ggcd")
	build(t, ".", bench)
	build(t, "ggcg/cmd/ggcd", ggcd)
	run := func(t *testing.T, workload, trace string) result {
		t.Helper()
		cmd := exec.Command(bench, "-ggcd", ggcd, "-trace-dir", dir,
			"-workload", workload, "-seed", "1", "-seconds", "1", "-trace", trace)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out)
		}
		return r
	}
	sameMetrics := func(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok {
				t.Errorf("metric %s not printed", m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
			}
		}
	}

	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			sameMetrics(t, run(t, w.Name, "0").Metrics, spec.EndToEnd)
			a, b := run(t, w.Name, "1"), run(t, w.Name, "1")
			sameMetrics(t, a.Metrics, spec.PerLayer)
			for name, m := range a.Metrics {
				if (m.Unit == "count" || m.Unit == "bytes") && b.Metrics[name].Value != m.Value {
					t.Errorf("exact count %s differs between two runs of seed 1: %v, %v", name, m.Value, b.Metrics[name].Value)
				}
			}
			trace, err := os.ReadFile(filepath.Join(dir, w.Name+"-seed1.json"))
			if err != nil || !strings.Contains(string(trace), `"traceEvents"`) {
				t.Errorf("no Perfetto trace written: %v", err)
			}
		})
	}
}

// TestDaemonMixInProcess runs daemon-mix inside the test binary, so that
// go test -race covers its concurrent callers and reference compiles.
func TestDaemonMixInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ggcd and runs a daemon")
	}
	o := options{workload: "daemon-mix", seed: 1, seconds: 1, ggcd: filepath.Join(t.TempDir(), "ggcd")}
	build(t, "ggcg/cmd/ggcd", o.ggcd)
	w := workload{name: o.workload, targets: mixTargets[:]}
	res, err := timeDaemon(context.Background(), o, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.problems)
	}
}

// build compiles a package into the binary bin.
func build(t *testing.T, pkg, bin string) {
	t.Helper()
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
}

// TestSeedsDiffer checks that another seed draws other inputs for every
// workload.
func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		a, b := w.jobs(1), w.jobs(2)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i].src == b[i].src
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", w.name)
		}
	}
	m1, m2 := newMix(1, 8), newMix(2, 8)
	if m1.miss[0] == m2.miss[0] {
		t.Error("daemon-mix: seeds 1 and 2 give the same fresh units")
	}
}

// TestFreshPastPool checks that daemon-mix requests past the pre-generated
// pool get the same fresh units a larger pool would have held.
func TestFreshPastPool(t *testing.T) {
	small, large := newMix(1, 2), newMix(1, 8)
	for i := 0; i < 16; i++ {
		a, ta := small.request(i)
		b, tb := large.request(i)
		if a != b || ta != tb {
			t.Fatalf("request %d differs between a pool of 2 and one of 8", i)
		}
	}
	if small.fresh(2) == small.fresh(3) {
		t.Error("fresh units 2 and 3 are the same program")
	}
}

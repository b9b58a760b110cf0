package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for one second against a freshly built
// server. It asserts that each metric BENCHMARK.json names is emitted with
// its unit and that each workload's correctness gate passes on a clean run
// and trips on a deliberately corrupted input.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real server")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "easeml-server")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/easeml-server").CombinedOutput(); err != nil {
		t.Fatalf("building server: %v\n%s", err, out)
	}
	t.Chdir(t.TempDir()) // the runner writes under .bench_build in its working directory

	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 1, seconds: 1, trace: true, serverBin: bin}
			res, err := measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.gateErrs) > 0 {
				t.Fatalf("clean run failed its gate: %v", res.gateErrs)
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.e2e[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if _, ok := res.layer[m.Name]; !ok || layerUnit(m.Name) != m.Unit {
					t.Errorf("per-layer %s: present %v, unit %s, want %s", m.Name, ok, layerUnit(m.Name), m.Unit)
				}
			}
			if len(res.layer) != len(spec.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, BENCHMARK.json lists %d", len(res.layer), len(spec.PerLayer))
			}

			cfg.trace, cfg.corrupt = false, true
			bad, err := measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(bad.gateErrs) == 0 {
				t.Fatal("correctness gate passed a corrupted input")
			}
		})
	}
}

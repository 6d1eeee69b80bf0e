package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesWorkloads keeps BENCHMARK.json at the
// repository root in step with the workload table and the end-to-end
// metrics perfbench prints.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the table (or its why differs)", i, w.Name, workloads[i].name)
		}
	}
	printed := loopStats{ops: []opResult{{seconds: 1}}, wall: 1}.result(1).Metrics
	if len(printed) != len(spec.EndToEnd) {
		t.Errorf("perfbench prints %d end-to-end metrics, BENCHMARK.json lists %d", len(printed), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) printed as %+v", m.Name, m.Unit, got)
		}
	}
}

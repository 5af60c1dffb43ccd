package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must
// honour: every metric it declares, with its unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclaredMetrics pins BENCHMARK.json to the metrics and workloads
// this program reports.
func TestDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload at the tiny size, untraced and traced,
// and requires every declared metric with its unit, and a correct run.
// The traced run uses another seed than the reference one: its digests
// must equal those of the untraced operation it makes first.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				seed := int64(defaultSeed)
				if traced {
					seed = 7
				}
				r, err := runWorkload(w, tinySize, seed, 0, traced, t.TempDir(), nil)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !r.Report.Correct || r.Report.Failed != 0 || r.Report.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced,
						r.Report.Correct, r.Report.Attempted, r.Report.Failed, r.Problems)
				}
				declared := bf.EndToEnd
				if traced {
					declared = bf.PerLayer
				}
				if len(r.Report.Metrics) != len(declared) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(r.Report.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := r.Report.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, d.Name, m, ok, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			}
		})
	}
}

// TestOutputCheckTrips corrupts one recorded digest and requires the
// run to count the mismatching operation as failed.
func TestOutputCheckTrips(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			clean, err := runWorkload(w, tinySize, defaultSeed, 0, false, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Report.Correct {
				t.Fatalf("clean run failed: %v", clean.Problems)
			}
			ref := make(map[string]string, len(clean.Digests))
			corrupted := ""
			for k, v := range clean.Digests {
				ref[k] = v
				if corrupted == "" || k < corrupted {
					corrupted = k
				}
			}
			ref[corrupted] = "0000000000000000"
			r, err := runWorkload(w, tinySize, defaultSeed, 0, false, t.TempDir(), ref)
			if err != nil {
				t.Fatal(err)
			}
			if r.Report.Correct || r.Report.Failed == 0 {
				t.Errorf("digest of %s corrupted, yet correct=%v failed=%d", corrupted, r.Report.Correct, r.Report.Failed)
			}
			// The untouched reference must pass.
			r, err = runWorkload(w, tinySize, defaultSeed, 0, false, t.TempDir(), clean.Digests)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Report.Correct {
				t.Errorf("run against its own digests failed: %v", r.Problems)
			}
		})
	}
}

func TestSeedDerivation(t *testing.T) {
	if deriveSeed(1, "a") != deriveSeed(1, "a") {
		t.Fatal("deriveSeed is not deterministic")
	}
	if deriveSeed(1, "a") == deriveSeed(2, "a") || deriveSeed(1, "a") == deriveSeed(1, "b") {
		t.Fatal("deriveSeed collides on neighbouring inputs")
	}
	for s := int64(-3); s < 100; s++ {
		if v := deriveSeed(s, "x"); v <= 0 {
			t.Fatalf("deriveSeed(%d) = %d, want > 0", s, v)
		}
	}
}

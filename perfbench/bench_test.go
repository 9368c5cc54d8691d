package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinyScale shrinks every stream so the whole suite runs in seconds.
const tinyScale = 0.01

func runTiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := config{workload: workload, seed: 7, seconds: 0.01, trace: trace, scale: tinyScale, workDir: t.TempDir()}
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %v: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, stdout.String())
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny scale,
// untraced and traced, and checks the result line: correct, nothing
// failed, and exactly the declared metrics with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, want := range map[bool][]unitOf{false: endToEnd, true: perLayerUnits} {
			res := runTiny(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, u := range want {
				m, ok := res.Metrics[u.name]
				if !ok || m.Unit != u.unit {
					t.Errorf("%s trace %v: metric %s = %+v (present %v), want unit %s", w, trace, u.name, m, ok, u.unit)
				}
			}
		}
	}
}

// TestGateRejectsAnotherSeedsOracle hands every workload's timed pass
// the oracle of a different seed: the gate must report a mismatch, and
// must accept the pass against its own oracle.
func TestGateRejectsAnotherSeedsOracle(t *testing.T) {
	for _, w := range workloads {
		cfg := config{workload: w.name, seed: 3, scale: tinyScale, workDir: t.TempDir()}
		fx, err := w.prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		own, err := fx.oracle()
		if err != nil {
			t.Fatal(err)
		}
		cfg.seed = 4
		other, err := w.prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		foreign, err := other.oracle()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name     string
			want     []tally
			mismatch bool
		}{{"own", own, false}, {"foreign", foreign, true}} {
			ph, err := timed(fx, nil, 0, nil, tc.want)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if got := ph.mismatch != ""; got != tc.mismatch {
				t.Errorf("%s against the %s oracle: mismatch %q, want mismatch %v", w.name, tc.name, ph.mismatch, tc.mismatch)
			}
		}
	}
}

// TestBenchmarkJSONListsTheEmittedMetrics keeps BENCHMARK.json and the
// program's metric tables in step.
func TestBenchmarkJSONListsTheEmittedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(es []entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return out
	}
	if got := names(spec.Workloads); !slices.Equal(got, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, workloadNames())
	}
	for _, tc := range []struct {
		name string
		got  []entry
		want []unitOf
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayerUnits}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d metrics, program emits %d", tc.name, len(tc.got), len(tc.want))
			continue
		}
		for i, u := range tc.want {
			if tc.got[i].Name != u.name || tc.got[i].Unit != u.unit {
				t.Errorf("%s[%d] = %s %s, program emits %s %s", tc.name, i, tc.got[i].Name, tc.got[i].Unit, u.name, u.unit)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.99: 4.96, 1: 5} {
		if got := quantile(slices.Clone(xs), q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// spec is the part of BENCHMARK.json (at the repository root) that the
// benchmark's output must match.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", s)
	}
	return s
}

// tiny returns a run of the workload small enough for a unit test.
func tiny(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload, seed: 3, seconds: 0.2, traced: traced,
		setups: 2, minJobs: 3, tiny: true, traceDir: t.TempDir(),
	}
}

// parsed is one run's output: the JSON summary and the value and
// note of every human-readable metric line, by metric name.
type parsed struct {
	res   report
	value map[string]float64
	unit  map[string]string
	note  map[string]string
}

func runTiny(t *testing.T, o options) (int, parsed) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := runOptions(o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	p := parsed{value: map[string]float64{}, unit: map[string]string{}, note: map[string]string{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p.res); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v\nstdout:\n%s\nstderr:\n%s", o.workload, err, out.String(), errOut.String())
	}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) < 5 || f[0] != o.workload {
			t.Fatalf("%s: malformed metric line %q", o.workload, l)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("%s: metric line %q: %v", o.workload, l, err)
		}
		p.value[f[1]], p.unit[f[1]], p.note[f[1]] = v, f[3], strings.Join(f[4:], " ")
	}
	return code, p
}

// TestEveryMetricPrints runs each workload at tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names prints by
// name with its unit, in the JSON summary and as a line, and that the
// end-to-end lines give their sample count.
func TestEveryMetricPrints(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			o := tiny(t, w.Name, traced)
			code, p := runTiny(t, o)
			if code != 0 || !p.res.Correct || p.res.Failed != 0 || p.res.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, summary %+v", w.Name, traced, code, p.res)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(p.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d JSON metrics, BENCHMARK.json names %d", w.Name, traced, len(p.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := p.res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: JSON metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if p.unit[m.Name] != m.Unit {
					t.Errorf("%s traced=%v: line for %s has unit %q, want %s", w.Name, traced, m.Name, p.unit[m.Name], m.Unit)
				}
				if !traced && !strings.HasPrefix(p.note[m.Name], "n=") {
					t.Errorf("%s: line for %s gives no sample count: %q", w.Name, m.Name, p.note[m.Name])
				}
			}
			if !strings.HasPrefix(p.note[errorRate.name], "base=") || p.unit[errorRate.name] != errorRate.unit {
				t.Errorf("%s traced=%v: error_rate line missing or without its base", w.Name, traced)
			}
			if !traced {
				for _, m := range []metricDef{trialsPerSecond, jobP50, jobP90, setupWall} {
					if p.unit[m.name] != m.unit || !strings.HasPrefix(p.note[m.name], "n=") {
						t.Errorf("%s: wall-clock line for %s missing, or without unit or sample count", w.Name, m.name)
					}
				}
			}
			if traced {
				path := filepath.Join(o.traceDir, w.Name+"-job.json")
				if err := trace.ValidateChromeFile(path); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
}

// TestCorruptedResultFails corrupts one timed result per workload and
// checks that the run counts it in error_rate and exits 1.
func TestCorruptedResultFails(t *testing.T) {
	for _, w := range readSpec(t).Workloads {
		o := tiny(t, w.Name, false)
		o.corrupt = true
		code, p := runTiny(t, o)
		if code != 1 {
			t.Errorf("%s: exit %d with a corrupted result, want 1", w.Name, code)
		}
		if p.res.Correct || p.res.Failed != 1 || p.value[errorRate.name] <= 0 {
			t.Errorf("%s: corrupted result not counted: summary %+v, error_rate %v", w.Name, p.res, p.value[errorRate.name])
		}
	}
}

// TestPercentile checks the Harrell–Davis estimate against known
// quantiles, and that it sits between two latency clusters of equal
// size instead of jumping to either.
func TestPercentile(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 101; i++ {
		xs = append(xs, time.Duration(i))
	}
	if got := percentile(xs, 0.5); math.Abs(float64(got)-51) > 0.5 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	if got := percentile(xs, 0.9); math.Abs(float64(got)-91) > 1 {
		t.Errorf("p90 of 1..101 = %v, want about 91", got)
	}
	for _, extra := range []int{0, 1} {
		var two []time.Duration
		for i := 0; i < 200+extra; i++ {
			two = append(two, 10*time.Millisecond)
		}
		for i := 0; i < 200; i++ {
			two = append(two, 20*time.Millisecond)
		}
		if got := percentile(two, 0.5); got < 14*time.Millisecond || got > 16*time.Millisecond {
			t.Errorf("median of two equal clusters (+%d) = %v, want about 15ms", extra, got)
		}
	}
}

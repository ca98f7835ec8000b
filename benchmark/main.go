// Command benchmark is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It sets the workload up several times (setup_s is the median), runs a
// closed-loop timed window of many jobs of one fixed shape, checks every
// output, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 1 it instead runs
// an untraced window, a traced window and (for the daemon workloads) a
// replay of further requests of the same kind through each layer's public
// calls, and prints the per-layer metrics. Any failed check makes the exit code 1.
// README.md lists the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/statevec"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// setups is how many times the workload is set up; setup_s is the
	// median. Only the last set-up is kept for the timed window.
	setups int
	// minJobs is the least number of jobs a timed window completes, so
	// that the p90 has at least ten samples beyond it.
	minJobs int
	// tiny divides every trial count by 16 (the benchmark's own tests).
	tiny bool
	// corrupt alters the first timed result before it is checked (the
	// benchmark's own tests).
	corrupt bool
	// traceDir receives the traced run's Chrome trace files.
	traceDir string
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// The end-to-end metrics BENCHMARK.json gates. They count CPU time, not
// wall-clock time: on a shared host, time the host gives to other virtual
// machines moves wall-clock figures of the same code by up to half between
// runs, and the kernel leaves that stolen time out of a process's CPU time.
var (
	trialsPerCPUSecond = metricDef{"trials_per_cpu_s", "1/s"}
	jobCPUP50          = metricDef{"job_cpu_ms_p50", "ms"}
	jobCPUP90          = metricDef{"job_cpu_ms_p90", "ms"}
	setupSeconds       = metricDef{"setup_s", "s"}
	peakRSS            = metricDef{"peak_rss_mb", "MiB"}
)

// Printed but not gated: the wall-clock figures a user sees, and the
// error rate, which the JSON carries as failed / attempted because a JSON
// metric must never be 0.
var (
	trialsPerSecond = metricDef{"trials_per_s", "1/s"}
	jobP50          = metricDef{"job_ms_p50", "ms"}
	jobP90          = metricDef{"job_ms_p90", "ms"}
	setupWall       = metricDef{"setup_wall_s", "s"}
	errorRate       = metricDef{"error_rate", "ratio"}
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: 9, minJobs: 100, traceDir: filepath.Join(".bench_build", "trace")}
	fs.StringVar(&o.workload, "workload", "", "workload: oneshot-table1, qsimd-repeat or qsimd-fresh12")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured part of the run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	o.traced = *traceFlag == 1
	if o.traced {
		o.setups = 1
	}
	return runOptions(o, stdout, stderr)
}

// runOptions runs one workload and prints its report.
func runOptions(o options, stdout, stderr io.Writer) int {
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: --seconds must be positive, got %g\n", o.seconds)
		return 2
	}
	rep, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result: human-readable lines, then the JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	lines    []string
}

// add records a metric and its human-readable line; note gives the
// sample count or base.
func (r *report) add(def metricDef, v float64, note string) {
	r.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	r.line(def, v, note)
}

// line adds a human-readable metric line without a JSON entry.
func (r *report) line(def metricDef, v float64, note string) {
	r.lines = append(r.lines, fmt.Sprintf("%-14s %-28s %16.6f %-6s %s", r.workload, def.name, v, def.unit, note))
}

func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// runWorkload sets the workload up, runs its windows and builds the
// report.
func runWorkload(o options, stderr io.Writer) (*report, error) {
	ck := &checks{log: stderr}
	var e *env
	var cpuSetup, wallSetup []float64
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		// Every set-up starts from the cold segment cache a fresh process
		// has, so the repeated set-ups measure the same work.
		statevec.ResetSegmentCache()
		cpu0, start := processCPU(), time.Now()
		var err error
		e, err = workloads[o.workload](o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := drive(e.clients, e.job, 0, e.warm, nil, ck); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		runtime.GC()
		wallSetup = append(wallSetup, time.Since(start).Seconds())
		cpuSetup = append(cpuSetup, (processCPU() - cpu0).Seconds())
	}
	defer e.close()

	rep := &report{workload: o.workload, Metrics: map[string]metric{}}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		if err := tracedRun(o, e, window, ck, rep); err != nil {
			return nil, err
		}
	} else {
		e.tamper.Store(o.corrupt)
		stopRSS := watchRSS(window / 10)
		w, err := drive(e.clients, e.job, window, o.minJobs, nil, ck)
		peaks, rssErr := stopRSS()
		if err != nil {
			return nil, err
		}
		if rssErr != nil {
			return nil, rssErr
		}
		jobs := fmt.Sprintf("n=%d jobs", len(w.lat))
		setups := fmt.Sprintf("n=%d set-ups", len(cpuSetup))
		rep.add(trialsPerCPUSecond, w.trialsPerCPUSecond(), jobs)
		rep.add(jobCPUP50, ms(percentile(w.cpuLat, 0.50)), jobs)
		rep.add(jobCPUP90, ms(percentile(w.cpuLat, 0.90)), jobs)
		rep.add(setupSeconds, median(cpuSetup), setups)
		rep.line(trialsPerSecond, w.trialsPerSecond(), jobs)
		rep.line(jobP50, ms(percentile(w.lat, 0.50)), jobs)
		rep.line(jobP90, ms(percentile(w.lat, 0.90)), jobs)
		rep.line(setupWall, median(wallSetup), setups)
		rep.add(peakRSS, median(peaks), fmt.Sprintf("n=%d slices", len(peaks)))
	}
	e.spotCheck(ck)
	rep.Attempted, rep.Failed = ck.counts()
	rep.line(errorRate, float64(rep.Failed)/float64(rep.Attempted), fmt.Sprintf("base=%d jobs checked", rep.Attempted))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// percentile is the Harrell–Davis estimate of the q-quantile of xs (0
// when empty): a mean of all order statistics weighted by the
// Beta((n+1)q, (n+1)(1-q)) distribution. A mixed workload's latencies
// cluster by circuit shape, and a single order statistic jumps across the
// gap between two clusters when one more job of either shape finishes;
// this estimate moves smoothly instead.
func percentile(xs []time.Duration, q float64) time.Duration {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var sum, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * float64(x)
		prev = cur
	}
	return time.Duration(sum)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of betaInc (modified Lentz).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// watchRSS cuts the time until the returned stop function is called into
// slices of the given length, and stop returns the process's peak RSS
// within each. It resets the high-water mark (VmHWM) through
// /proc/self/clear_refs at the start of a slice and reads it at the end. A
// Go process's RSS swings with every GC cycle, so the peak over a whole
// run is the extreme of a thousand cycles and moves from run to run; the
// median slice peak does not.
func watchRSS(slice time.Duration) (stop func() ([]float64, error)) {
	quit, done := make(chan struct{}), make(chan struct{})
	var (
		peaks []float64
		err   error
	)
	go func() {
		defer close(done)
		for {
			if err = resetPeakRSS(); err != nil {
				return
			}
			stopped := false
			select {
			case <-time.After(slice):
			case <-quit:
				stopped = true
			}
			var rss float64
			if rss, err = peakRSSMiB(); err != nil {
				return
			}
			peaks = append(peaks, rss)
			if stopped {
				return
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		<-done
		return peaks, err
	}
}

func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("peak RSS: reset: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

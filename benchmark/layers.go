package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trace"
	"repro/internal/transpile"
	"repro/internal/trial"
)

// perLayer are the traced run's metrics, in BENCHMARK.json order. A
// layer that does not run on a workload reports 0.
var perLayer = []metricDef{
	{"transpile.ms_per_job", "ms"},
	{"trial.gen_ns_per_trial", "ns"},
	{"trial.errors_per_trial", "count"},
	{"reorder.sort_ns_per_trial", "ns"},
	{"reorder.plan_ns_per_trial", "ns"},
	{"reorder.normalized_ops", "ratio"},
	{"reorder.msv", "count"},
	{"statevec.compile_ms_per_job", "ms"},
	{"statevec.segcache_hit_ratio", "ratio"},
	{"statevec.segcache_evictions", "count"},
	{"statevec.kernel_ns_per_amp_op", "ns"},
	{"statevec.pool_hit_ratio", "ratio"},
	{"sim.exec_ms_per_job", "ms"},
	{"sim.copies_per_trial", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// layerCounts accumulates the traced run's counts from the program's
// public results: the plan analysis, sim.Result, BufferPool.Stats and the
// daemon's JobView. Safe for concurrent clients; nil ignores everything.
type layerCounts struct {
	mu         sync.Mutex
	jobs       int
	trials     int64
	errors     int64
	optOps     int64
	baseOps    int64
	msv        int
	copies     int64
	ampOps     float64 // Σ executed ops × 2^n
	poolHits   int64
	poolMisses int64
	queueWait  []time.Duration
	run        []time.Duration
}

func (lc *layerCounts) addService(v *service.JobView) {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.queueWait = append(lc.queueWait, time.Duration(v.QueueWaitNs))
	lc.run = append(lc.run, time.Duration(v.RunNs))
}

// runLayers runs one job's pipeline as core.Run does for cfg, step for
// step, but calls each layer from here under its own child of sp, and
// compiles every segment the plan advances through before execution, so
// that compile time is not hidden inside execute.
func runLayers(cfg core.Config, pool *statevec.BufferPool, sp *trace.Span, lc *layerCounts) (*sim.Result, *reorder.Plan, error) {
	circ := cfg.Circuit
	if cfg.Transpile {
		s := sp.Child("transpile")
		tr, err := transpile.ToDevice(circ, cfg.Device)
		s.End()
		if err != nil {
			return nil, nil, err
		}
		circ = tr.Circuit
	}
	s := sp.Child("validate")
	err := circ.Validate()
	s.End()
	if err != nil {
		return nil, nil, err
	}

	s = sp.Child("trial_gen")
	gen, err := trial.NewGeneratorMode(circ, cfg.Device.Model(), cfg.ErrorMode)
	if err != nil {
		s.End()
		return nil, nil, err
	}
	trials := gen.Generate(rand.New(rand.NewSource(cfg.Seed)), cfg.Trials)
	s.End()

	s = sp.Child("trial_stats")
	stats := trial.Summarize(trials)
	s.End()

	s = sp.Child("sort")
	ordered := reorder.Sort(trials)
	s.End()

	s = sp.Child("plan_build")
	plan, err := reorder.BuildPlanOrderedBudget(circ, ordered, math.MaxInt)
	s.End()
	if err != nil {
		return nil, nil, err
	}

	// Fuse off dispatches gate by gate and compiles nothing, as in core.Run.
	if cfg.Fuse != statevec.FuseOff {
		s = sp.Child("compile")
		plan.Prog = statevec.CompileWith(circ, statevec.CompileOptions{Fuse: cfg.Fuse})
		for _, st := range plan.Steps {
			if st.Kind == reorder.StepAdvance {
				plan.Prog.SegmentOps(st.From, st.To)
			}
		}
		s.End()
	}

	h0, m0 := pool.Stats()
	s = sp.Child("execute")
	res, err := sim.ExecutePlan(circ, plan, sim.Options{Fuse: cfg.Fuse, Pool: pool})
	s.End()
	if err != nil {
		return nil, nil, err
	}
	h1, m1 := pool.Stats()

	if lc != nil {
		lc.mu.Lock()
		lc.jobs++
		lc.trials += int64(cfg.Trials)
		lc.errors += int64(stats.TotalErrors)
		lc.optOps += plan.OptimizedOps()
		lc.baseOps += plan.BaselineOps()
		lc.msv = max(lc.msv, plan.MSV())
		lc.copies += res.Copies
		lc.ampOps += float64(res.Ops) * math.Ldexp(1, circ.NumQubits())
		lc.poolHits += h1 - h0
		lc.poolMisses += m1 - m0
		lc.mu.Unlock()
	}
	return res, plan, nil
}

// tracedRun measures the untraced and the traced work rate, then takes
// every per-layer metric from the traced jobs: an untraced window (40% of
// the run), a traced window (40%) and, for the daemon workloads, a replay
// of the following requests through the layer calls (20%). The replayed
// requests are new ones of the same kind, so the segment cache is in the
// state the timed run saw: warm for qsimd-repeat, cold for qsimd-fresh12.
func tracedRun(o options, e *env, dur time.Duration, ck *checks, rep *report) error {
	untraced, err := drive(e.clients, e.job, dur*4/10, o.minJobs, nil, ck)
	if err != nil {
		return err
	}
	runtime.GC()

	tracer := trace.New(trace.Config{})
	lc := &layerCounts{}
	sh0, sm0 := statevec.SegmentCacheStats()
	se0 := statevec.SegmentCacheEvictions()
	traced, err := drive(e.clients, e.job, dur*4/10, o.minJobs, &tracing{tracer, "job", lc}, ck)
	if err != nil {
		return err
	}
	traces := traced.traces
	if e.replay != nil {
		replayed, err := drive(1, e.replay, dur*2/10, max(o.minJobs/5, 1), &tracing{tracer, "replay", lc}, ck)
		if err != nil {
			return err
		}
		traces = append(traces, replayed.traces...)
	}
	sh1, sm1 := statevec.SegmentCacheStats()
	segEvictions := statevec.SegmentCacheEvictions() - se0

	sp, err := spanTimes(traces)
	if err != nil {
		ck.record(err)
	}
	if err := writeSlowest(o, traces); err != nil {
		ck.record(err)
	}

	trials := float64(lc.trials)
	perJob := func(name string) float64 { return ms(sp.total[name]) / float64(max(lc.jobs, 1)) }
	perTrial := func(name string) float64 { return float64(sp.total[name]) / math.Max(trials, 1) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layerJobs := fmt.Sprintf("n=%d layered jobs", lc.jobs)
	layerTrials := fmt.Sprintf("n=%d trials", lc.trials)
	lookups := (sh1 - sh0) + (sm1 - sm0)
	type value struct {
		v    float64
		note string
	}
	vals := map[string]value{
		"transpile.ms_per_job":          {perJob("transpile"), layerJobs},
		"trial.gen_ns_per_trial":        {perTrial("trial_gen"), layerTrials},
		"trial.errors_per_trial":        {ratio(float64(lc.errors), trials), layerTrials},
		"reorder.sort_ns_per_trial":     {perTrial("sort"), layerTrials},
		"reorder.plan_ns_per_trial":     {perTrial("plan_build"), layerTrials},
		"reorder.normalized_ops":        {ratio(float64(lc.optOps), float64(lc.baseOps)), fmt.Sprintf("base=%d baseline ops", lc.baseOps)},
		"reorder.msv":                   {float64(lc.msv), "max over " + layerJobs},
		"statevec.compile_ms_per_job":   {perJob("compile"), layerJobs},
		"statevec.segcache_hit_ratio":   {ratio(float64(sh1-sh0), float64(lookups)), fmt.Sprintf("base=%d lookups", lookups)},
		"statevec.segcache_evictions":   {float64(segEvictions), fmt.Sprintf("in %d lookups", lookups)},
		"statevec.kernel_ns_per_amp_op": {ratio(float64(sp.total["execute"]), lc.ampOps), fmt.Sprintf("%.0f B moved per op (2^n amplitudes x 32 B)", ratio(lc.ampOps*32, float64(lc.optOps)))},
		"statevec.pool_hit_ratio":       {ratio(float64(lc.poolHits), float64(lc.poolHits+lc.poolMisses)), fmt.Sprintf("base=%d gets", lc.poolHits+lc.poolMisses)},
		"sim.exec_ms_per_job":           {perJob("execute"), layerJobs},
		"sim.copies_per_trial":          {ratio(float64(lc.copies), trials), layerTrials},
		"service.submit_ms_p50":         {ms(percentile(sp.durs["submit"], 0.5)), fmt.Sprintf("n=%d", len(sp.durs["submit"]))},
		"service.queue_wait_ms_p90":     {ms(percentile(lc.queueWait, 0.9)), fmt.Sprintf("n=%d", len(lc.queueWait))},
		"service.run_ms_p50":            {ms(percentile(lc.run, 0.5)), fmt.Sprintf("n=%d", len(lc.run))},
		"trace.overhead_ratio": {ratio(untraced.trialsPerCPUSecond(), traced.trialsPerCPUSecond()),
			fmt.Sprintf("untraced %.1f / traced %.1f trials per CPU-second", untraced.trialsPerCPUSecond(), traced.trialsPerCPUSecond())},
	}
	for _, def := range perLayer {
		rep.add(def, vals[def.name].v, vals[def.name].note)
	}
	names := make([]string, 0, len(sp.self))
	for name := range sp.self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.line(metricDef{"self_ms." + name, "ms"}, ms(sp.self[name])/float64(len(sp.durs[name])),
			fmt.Sprintf("per span, n=%d", len(sp.durs[name])))
	}
	return nil
}

// spans aggregates span durations by span name.
type spans struct {
	durs  map[string][]time.Duration
	total map[string]time.Duration
	// self is each span's duration minus the part of it its child spans
	// cover, summed by name.
	self map[string]time.Duration
}

// spanTimes validates every trace's Chrome export and aggregates its
// spans from the export's exact-nanosecond intervals.
func spanTimes(traces []*trace.Trace) (spans, error) {
	sp := spans{durs: map[string][]time.Duration{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	type ival struct{ from, to int64 }
	for _, tr := range traces {
		ct := tr.Chrome()
		data, err := json.Marshal(ct)
		if err != nil {
			return sp, err
		}
		if err := trace.ValidateChrome(data); err != nil {
			return sp, fmt.Errorf("trace %s: %w", tr.ID(), err)
		}
		children := map[string][]ival{}
		for _, ev := range ct.TraceEvents {
			if parent, ok := ev.Args["parent_id"].(string); ok && ev.Ph == "X" {
				off, dur := ev.Args["offset_ns"].(int64), ev.Args["dur_ns"].(int64)
				children[parent] = append(children[parent], ival{off, off + dur})
			}
		}
		for _, ev := range ct.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			off, dur := ev.Args["offset_ns"].(int64), ev.Args["dur_ns"].(int64)
			kids := children[ev.Args["span_id"].(string)]
			sort.Slice(kids, func(i, j int) bool { return kids[i].from < kids[j].from })
			covered, reach := int64(0), off
			for _, c := range kids {
				from, to := max(c.from, reach), min(c.to, off+dur)
				if to > from {
					covered += to - from
					reach = to
				}
			}
			d := time.Duration(dur)
			sp.durs[ev.Name] = append(sp.durs[ev.Name], d)
			sp.total[ev.Name] += d
			sp.self[ev.Name] += d - time.Duration(covered)
		}
	}
	return sp, nil
}

// writeSlowest writes the slowest traced job's trace, and for the daemon
// workloads the slowest replayed job's, as Chrome trace-event JSON, and
// validates each file.
func writeSlowest(o options, traces []*trace.Trace) error {
	slowest := map[string]*trace.Trace{}
	for _, tr := range traces {
		s := tr.Summary()
		if cur, ok := slowest[s.Root]; !ok || s.DurationNs > cur.Summary().DurationNs {
			slowest[s.Root] = tr
		}
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	for root, tr := range slowest {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-%s.json", o.workload, root))
		if err := tr.WriteChromeFile(path); err != nil {
			return err
		}
		if err := trace.ValidateChromeFile(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/reorder"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/statevec"
	"repro/internal/trace"
)

// Workload shapes. Every state vector (at most 12 qubits, 64 KiB) fits in
// one core's L2, so neighbours on a shared L3 do not set the numbers.
const (
	oneshotTrials = 8192 // per Table I job, as `qsim -bench <name> -transpile -trials 8192`
	repeatTrials  = 2048 // per built-in circuit of qsimd-repeat
	repeatQVWidth = 8
	repeatQVDepth = 8
	repeatQVTrial = 512
	freshWidth    = 12
	freshDepth    = 4
	freshTrials   = 128
	artificialP1  = 1e-3
	segCacheCap   = 4096 // qsimd's -segcache-cap default
	tenants       = 4
)

// repeatBench are the seed-independent Table I circuits qsimd-repeat
// resubmits by name.
var repeatBench = []string{"qft5", "grover", "bv5", "7x1mod15"}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(options) (*env, error){
	"oneshot-table1": newOneshot,
	"qsimd-repeat":   newRepeat,
	"qsimd-fresh12":  newFresh12,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is one set-up workload, ready for timed jobs.
type env struct {
	// clients is the number of closed-loop callers.
	clients int
	// warm is the number of warm-up jobs of a set-up.
	warm int
	// job prepares the next request to run end to end.
	job source
	// replay prepares the next request to run through each layer's public
	// calls (daemon workloads only; the traced one-shot job already does).
	replay source
	// spot compares the daemon's histogram for request k with a direct
	// core.Run; shapes is how many consecutive requests cover every
	// circuit shape (0 for the one-shot workload).
	spot   func(k int) error
	shapes int
	close  func()

	next   atomic.Int64 // next request index
	tamper atomic.Bool  // corrupt the next result before checking it
}

// request returns the next request index.
func (e *env) request() int { return int(e.next.Add(1) - 1) }

// corrupt reports whether the next result is to be corrupted, and
// clears the request.
func (e *env) corrupt() bool { return e.tamper.CompareAndSwap(true, false) }

// spotCheck compares one request per circuit shape, outside any timed
// window, with a direct core.Run.
func (e *env) spotCheck(ck *checks) {
	for i := 0; i < e.shapes; i++ {
		ck.record(e.spot(e.request()))
	}
}

// checks counts every job the benchmark checked and the ones that
// failed: errors, rejections (429/503) and failed output checks.
type checks struct {
	log       io.Writer
	mu        sync.Mutex
	attempted int
	failed    int
}

func (c *checks) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 5 {
			fmt.Fprintf(c.log, "benchmark: check failed: %v\n", err)
		}
	}
}

func (c *checks) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// window is one timed run of closed-loop jobs. Every figure counts only
// jobs that passed their checks.
type window struct {
	lat    []time.Duration // wall-clock latency of each job
	cpuLat []time.Duration // process CPU time while each job was in flight, per client
	trials int64
	wall   time.Duration  // window start until the last job finished
	cpu    time.Duration  // process CPU time over the window
	traces []*trace.Trace // one per job when traced
}

func (w *window) trialsPerSecond() float64    { return float64(w.trials) / w.wall.Seconds() }
func (w *window) trialsPerCPUSecond() float64 { return float64(w.trials) / w.cpu.Seconds() }

// jobFunc runs one prepared request and checks its output, returning its
// trial count. A non-nil sp is the job's root span; lc then receives the
// job's per-layer counts.
type jobFunc func(sp *trace.Span, lc *layerCounts) (int, error)

// source takes the next request index and builds that request's inputs,
// outside the job's timing.
type source func() (k int, job jobFunc)

// tracing gives every job of a window its own trace, rooted at a span
// named root, and collects the jobs' per-layer counts into lc.
type tracing struct {
	tracer *trace.Tracer
	root   string
	lc     *layerCounts
}

// drive runs jobs on closed-loop callers (each sends its next job only
// when the previous one finished) until dur has passed and at least
// minJobs jobs have finished. A window that cannot reach minJobs within a
// minute past dur is an error. tc, when non-nil, traces every job.
func drive(clients int, next source, dur time.Duration, minJobs int, tc *tracing, ck *checks) (*window, error) {
	w := &window{}
	cpu0, start := processCPU(), time.Now()
	deadline, hardStop := start.Add(dur), start.Add(dur+time.Minute)
	var (
		mu       sync.Mutex
		finished atomic.Int64
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && finished.Load() >= int64(minJobs)) {
					return
				}
				k, job := next()
				var (
					root *trace.Span
					lc   *layerCounts
				)
				if tc != nil {
					root = tc.tracer.Start(tc.root, trace.SpanContext{}, trace.Int("request", int64(k)))
					lc = tc.lc
				}
				c0, t0 := processCPU(), time.Now()
				trials, err := job(root, lc)
				lat := time.Since(t0)
				// Each client has one job in flight, so the process's CPU
				// time is shared among the clients' jobs.
				cpuLat := (processCPU() - c0) / time.Duration(clients)
				root.End()
				ck.record(err)
				finished.Add(1)
				mu.Lock()
				if err == nil {
					w.lat = append(w.lat, lat)
					w.cpuLat = append(w.cpuLat, cpuLat)
					w.trials += int64(trials)
				}
				if root != nil {
					w.traces = append(w.traces, root.Trace())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall, w.cpu = time.Since(start), processCPU()-cpu0
	if n := finished.Load(); n < int64(minJobs) {
		return nil, fmt.Errorf("only %d of %d jobs finished within %v", n, minJobs, dur+time.Minute)
	}
	if len(w.lat) == 0 {
		return nil, fmt.Errorf("no job passed its checks")
	}
	return w, nil
}

// jobSeed derives request k's trial seed from the workload seed
// (splitmix64), positive and never 0.
func jobSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

func scaled(o options, trials int) int {
	if o.tiny {
		return max(trials/16, 1)
	}
	return trials
}

// newOneshot sets up oneshot-table1: the paper's 12 Table I circuits on
// the Yorktown device, one caller, round robin, each job through core.Run
// with qsim's defaults (reordered, fuse off, 1 worker, snapshot restore).
// The circuits are the fixed Table I set `qsim -bench` builds (its QV rows
// from seed 1); the workload seed drives every job's trial seed.
func newOneshot(o options) (*env, error) {
	suite := bench.Suite(1)
	circs := make([]*circuit.Circuit, len(bench.TableI))
	for i, r := range bench.TableI {
		circs[i] = suite[r.Name]
	}
	dev := device.Yorktown()
	trials := scaled(o, oneshotTrials)
	e := &env{clients: 1, warm: len(circs), close: func() {}}
	e.job = func() (int, jobFunc) {
		k := e.request()
		cfg := core.Config{
			Circuit: circs[k%len(circs)], Device: dev, Transpile: true,
			Trials: trials, Seed: jobSeed(o.seed, k), Mode: core.ModeReordered,
		}
		return k, func(sp *trace.Span, lc *layerCounts) (int, error) {
			var (
				res  *sim.Result
				plan *reorder.Plan
				err  error
			)
			if sp != nil {
				res, plan, err = runLayers(cfg, statevec.NewBufferPool(), sp, lc)
			} else {
				var rep *core.Report
				if rep, err = core.Run(cfg); err == nil {
					res, plan = rep.Reordered, rep.Plan
				}
			}
			if err != nil {
				return 0, err
			}
			if e.corrupt() {
				res.Ops++
			}
			return trials, checkRun(k, res, plan, trials)
		}
	}
	return e, nil
}

// newRepeat sets up qsimd-repeat: a fixed pool of four built-in Table I
// circuits and four 8-qubit random SU(4) circuits, resubmitted with fresh
// trial seeds, so nearly every segment-cache lookup hits.
func newRepeat(o options) (*env, error) {
	pool := make([]service.JobRequest, 0, len(repeatBench)+4)
	for _, name := range repeatBench {
		pool = append(pool, service.JobRequest{Bench: name, Trials: scaled(o, repeatTrials)})
	}
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < 4; i++ {
		q, err := circuit.WriteQASM(bench.QV(repeatQVWidth, repeatQVDepth, rng))
		if err != nil {
			return nil, err
		}
		pool = append(pool, service.JobRequest{QASM: q, Device: "artificial", P1: artificialP1, Trials: scaled(o, repeatQVTrial)})
	}
	return newDaemon(func(k int) service.JobRequest {
		r := pool[k%len(pool)]
		r.Tenant = fmt.Sprintf("tenant-%d", k%tenants)
		r.Seed = jobSeed(o.seed, k)
		return r
	}, 2*len(pool), len(pool))
}

// newFresh12 sets up qsimd-fresh12: every request carries a never-seen
// 12-qubit random SU(4) circuit, so every segment lookup misses and jobs
// are bound by compile and kernel time.
func newFresh12(o options) (*env, error) {
	return newDaemon(func(k int) service.JobRequest {
		seed := jobSeed(o.seed, k)
		q, err := circuit.WriteQASM(bench.QV(freshWidth, freshDepth, rand.New(rand.NewSource(seed))))
		if err != nil {
			// QV circuits use only QASM-expressible gates.
			panic(err)
		}
		return service.JobRequest{
			Tenant: fmt.Sprintf("tenant-%d", k%tenants), QASM: q, Device: "artificial",
			P1: artificialP1, Trials: scaled(o, freshTrials), Seed: seed,
		}
	}, 4, 1)
}

// newDaemon starts an in-process qsimd with its flag defaults (workers =
// nproc, segment cache cap 4096, queue 64) behind a loopback listener,
// driven over HTTP by at most two clients on at most two connections.
func newDaemon(reqFor func(k int) service.JobRequest, warm, shapes int) (*env, error) {
	srv := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), SegCacheCap: segCacheCap})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // no job was admitted
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	clients := min(2, runtime.GOMAXPROCS(0))
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	cl := service.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: tr})
	replayPool := statevec.NewBufferPool()
	e := &env{clients: clients, warm: warm, shapes: shapes}

	// submit runs one request through the daemon. Completion comes from
	// Server.WaitJob, not Client.Wait, whose backed-off polling would
	// round latency up.
	submit := func(req service.JobRequest, sp *trace.Span) (*service.JobView, error) {
		ctx := context.Background()
		ssp := sp.Child("submit")
		id, err := cl.Submit(ctx, req)
		ssp.End()
		if err != nil {
			return nil, err
		}
		wsp := sp.Child("wait")
		v, err := srv.WaitJob(ctx, id)
		wsp.End()
		if err != nil {
			return nil, err
		}
		if v.State != service.StateDone {
			return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		}
		return v, nil
	}
	// A daemon job is timed from the start of the HTTP submit: the client
	// composes the request (for qsimd-fresh12, about 1 ms of circuit
	// generation) before that.
	e.job = func() (int, jobFunc) {
		k := e.request()
		req := reqFor(k)
		return k, func(sp *trace.Span, lc *layerCounts) (int, error) {
			v, err := submit(req, sp)
			if err != nil {
				return 0, fmt.Errorf("request %d: %w", k, err)
			}
			lc.addService(v)
			counts := v.Counts
			if e.corrupt() {
				counts = maps.Clone(counts)
				for key := range counts {
					counts[key]--
					break
				}
			}
			return req.Trials, checkCounts(k, counts, req.Trials)
		}
	}
	e.replay = func() (int, jobFunc) {
		k := e.request()
		req := reqFor(k)
		cfg, err := directConfig(req)
		return k, func(sp *trace.Span, lc *layerCounts) (int, error) {
			if err != nil {
				return 0, err
			}
			res, plan, err := runLayers(cfg, replayPool, sp, lc)
			if err != nil {
				return 0, err
			}
			return req.Trials, checkRun(k, res, plan, req.Trials)
		}
	}
	e.spot = func(k int) error {
		req := reqFor(k)
		v, err := submit(req, nil)
		if err != nil {
			return fmt.Errorf("spot check %d: %w", k, err)
		}
		cfg, err := directConfig(req)
		if err != nil {
			return err
		}
		rep, err := core.Run(cfg)
		if err != nil {
			return fmt.Errorf("spot check %d: direct run: %w", k, err)
		}
		if want := service.FormatCounts(rep.Reordered.Counts, rep.Circuit); !maps.Equal(v.Counts, want) {
			return fmt.Errorf("spot check %d: daemon histogram differs from direct core.Run", k)
		}
		return nil
	}
	e.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx) // every job was waited for; nothing is left to drain
		_ = hs.Shutdown(ctx)
		<-served
		tr.CloseIdleConnections()
	}
	return e, nil
}

// directConfig is the core.Config the daemon builds for req, for the
// request shapes this benchmark sends: the reference for the spot check
// and the input of the layer replay.
func directConfig(req service.JobRequest) (core.Config, error) {
	var (
		c   *circuit.Circuit
		err error
	)
	if req.Bench != "" {
		c, err = bench.Build(req.Bench, req.Seed)
	} else {
		c, err = circuit.ParseQASM(req.QASM)
	}
	if err != nil {
		return core.Config{}, err
	}
	dev := device.Yorktown()
	if req.Device == "artificial" {
		dev = device.Artificial(c.NumQubits(), req.P1)
	}
	return core.Config{
		Circuit: c, Device: dev, Trials: req.Trials, Seed: req.Seed,
		Mode: core.ModeReordered, Workers: 1, Fuse: statevec.FuseExact,
	}, nil
}

// checkRun checks one plan execution: it applied exactly the plan's ops,
// and its histogram accounts for every trial.
func checkRun(k int, res *sim.Result, plan *reorder.Plan, trials int) error {
	if res.Ops != plan.OptimizedOps() {
		return fmt.Errorf("request %d: executed %d ops, plan has %d", k, res.Ops, plan.OptimizedOps())
	}
	return checkCounts(k, res.Counts, trials)
}

// checkCounts checks that a histogram accounts for every trial.
func checkCounts[K comparable](k int, counts map[K]int, trials int) error {
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != trials {
		return fmt.Errorf("request %d: histogram sums to %d, want %d trials", k, sum, trials)
	}
	return nil
}

// processCPU is the CPU time (user and system) the process has used. The
// kernel leaves out time the host gave to other virtual machines (steal),
// which wall-clock time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"mobisense"
)

// workload is one set of inputs the benchmark runs: a stream of sweeps
// driven through Sweep.Run, or a traffic mix against the HTTP service.
type workload struct {
	name  string
	why   string
	sweep *sweepWorkload
	serve *serveWorkload
}

// workloads are the benchmark's input families. Obstacle density and trace
// density decide how much work visibility and coverage do, so obstacle-heavy
// and obstacle-free, traced and untraced workloads are kept apart: a change
// to one layer is exercised by one workload and bypassed by another.
var workloads = []workload{
	{
		name: "fig13-random",
		why:  "Fig 13 robustness batch: CPVF and FLOOR on random obstacles, N=240, 750 s, untraced, with a store",
		sweep: &sweepWorkload{
			schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
			scenarios: []string{"random-obstacles"},
			n:         240, duration: 750, repeats: 10, workers: 2,
			store: true, scalingRuns: 40,
		},
	},
	{
		name: "dense-trace",
		why:  "dashboard/replay batch: 1 s traces with layouts on three obstacle fields; coverage and visibility dominate",
		sweep: &sweepWorkload{
			schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
			scenarios: []string{"narrow-door", "campus", "two-obstacles"},
			n:         240, duration: 750, repeats: 2, workers: 2,
			store: true,
			trace: &mobisense.TraceOptions{Stride: 1, Layouts: true, LayoutStride: 50},
		},
	},
	{
		name: "free-n480",
		why:  "single-threaded obstacle-free baseline at N=480 with no store; scheme, engine and spatial layers dominate",
		sweep: &sweepWorkload{
			schemes:   []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR},
			scenarios: []string{"free"},
			n:         480, duration: 750, repeats: 2, workers: 1,
		},
	},
	{
		name:  "serve-mixed",
		why:   "HTTP service, 2 closed-loop clients: sweep jobs, SSE, records and traces reads, every 4th POST a cache hit",
		serve: &serveWorkload{clients: 2, workers: 2, n: 60, duration: 200, repeats: 3, trace: 10},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the settings one workload run shares with its passes.
type options struct {
	seed    uint64
	seconds float64
	workdir string
	// golden holds the recorded digests outputs are checked against. With
	// -update-golden, updated is non-nil and collects this run's digests
	// instead.
	golden, updated map[string]string
}

// smokeScale shrinks every workload to seconds-scale inputs. Only the smoke
// tests set it; outputs are then checked for consistency but not against
// the golden digests.
var smokeScale bool

// outcome is what one measurement pass observed, in the units the metrics
// are computed from. Spans are harness-side timings around public calls.
type outcome struct {
	wall     time.Duration // timed: sweep batches, or the service traffic
	workers  int
	runs     int             // runs executed
	runTimes []time.Duration // per-run wall time (Result.Elapsed)

	attempted, failed int
	problems          []string
	info              []string

	messages      int64 // protocol messages over all runs
	floorRuns     int
	placements    int
	coverageEvals int // coverage samples: trace samples plus each final layout
	storeBytes    int64
	jobs          int // serve: executed (non-cache-hit) jobs
	sseEvents     float64
	httpRequests  float64
	spans         map[string][]time.Duration
	scalingEff    float64
	cpu           *layerCPU
	res           resources
}

func (o *outcome) span(name string, d time.Duration) {
	if o.spans == nil {
		o.spans = map[string][]time.Duration{}
	}
	o.spans[name] = append(o.spans[name], d)
}

// merge adds another outcome of the same kind of pass to o: its time,
// counts, samples, spans and profile.
func (o *outcome) merge(x outcome) {
	o.wall += x.wall
	o.runs += x.runs
	o.runTimes = append(o.runTimes, x.runTimes...)
	o.attempted += x.attempted
	o.failed += x.failed
	o.problems = append(o.problems, x.problems...)
	o.info = append(o.info, x.info...)
	o.messages += x.messages
	o.floorRuns += x.floorRuns
	o.placements += x.placements
	o.coverageEvals += x.coverageEvals
	o.storeBytes += x.storeBytes
	o.jobs += x.jobs
	o.sseEvents += x.sseEvents
	o.httpRequests += x.httpRequests
	for name, ds := range x.spans {
		for _, d := range ds {
			o.span(name, d)
		}
	}
	o.res = o.res.add(x.res)
	if x.cpu != nil {
		if o.cpu == nil {
			o.cpu = &layerCPU{}
		}
		o.cpu.add(*x.cpu)
	}
}

// fail records a failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runsPerSec is the pass's throughput over all its timed parts. On a shared
// host the speed drifts over tens of seconds rather than in bursts, so the
// total varies less from run to run than a median over batches does.
func (o *outcome) runsPerSec() float64 {
	if o.wall <= 0 {
		return 0
	}
	return float64(o.runs) / o.wall.Seconds()
}

// resources are process-wide runtime counters sampled around a pass.
type resources struct {
	gcCPU, usedCPU      float64 // CPU seconds
	allocBytes, mallocs float64
}

var resourceSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readResources() resources {
	s := make([]metrics.Sample, len(resourceSamples))
	for i, name := range resourceSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return resources{gcCPU: v(0), usedCPU: v(1) - v(2), allocBytes: v(3), mallocs: v(4)}
}

func (r resources) sub(b resources) resources {
	return resources{r.gcCPU - b.gcCPU, r.usedCPU - b.usedCPU, r.allocBytes - b.allocBytes, r.mallocs - b.mallocs}
}

func (r resources) add(b resources) resources {
	return resources{r.gcCPU + b.gcCPU, r.usedCPU + b.usedCPU, r.allocBytes + b.allocBytes, r.mallocs + b.mallocs}
}

// meter accumulates what the timed parts of a pass consume: the runtime
// counters always, and with profile a CPU profile the harness starts and
// stops around each timed part, attributed to layers. Output checks run
// between timed parts and stay out of both.
type meter struct {
	profile bool
	buf     bytes.Buffer
	before  resources
	res     resources
	cpu     layerCPU
}

func (m *meter) begin() error {
	if m.profile {
		m.buf.Reset()
		if err := pprof.StartCPUProfile(&m.buf); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	m.before = readResources()
	return nil
}

func (m *meter) end() error {
	m.res = m.res.add(readResources().sub(m.before))
	if !m.profile {
		return nil
	}
	pprof.StopCPUProfile()
	cpu, err := attributeProfile(m.buf.Bytes())
	if err != nil {
		return err
	}
	m.cpu.add(cpu)
	return nil
}

// record stores the meter's totals in the pass outcome.
func (m *meter) record(o *outcome) {
	o.res = m.res
	if m.profile {
		o.cpu = &m.cpu
	}
}

// report is one workload run's result: metric values by name plus the
// operation counts behind error_rate.
type report struct {
	values            map[string]float64
	attempted, failed int
	problems, info    []string
}

// runWorkload sets the workload up and runs its measured pass and, with
// trace, the profiled pass that yields the per-layer metrics.
func runWorkload(w workload, opt options, trace bool) (report, error) {
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(opt.workdir, w.name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	var setup []time.Duration
	var passes []outcome
	if w.sweep != nil {
		setup, passes, err = w.sweep.run(w.name, opt, dir, trace)
	} else {
		setup, passes, err = w.serve.run(w.name, opt, dir, trace)
	}
	if err != nil {
		return report{}, err
	}
	rep := report{values: map[string]float64{}}
	for _, p := range passes {
		rep.attempted += p.attempted
		rep.failed += p.failed
		rep.problems = append(rep.problems, p.problems...)
		rep.info = append(rep.info, p.info...)
	}
	rep.info = append(rep.info, fmt.Sprintf("run times from %d runs, set-up from %d processes", len(passes[0].runTimes), len(setup)))
	if !trace {
		endToEndValues(rep.values, setup, passes[0])
	} else {
		perLayerValues(rep.values, passes[0], passes[1])
		if _, ok := percentile(msAll(passes[0].runTimes), 90); !ok {
			rep.info = append(rep.info, fmt.Sprintf("mobisense.run_p90_ms is indicative: fewer than %d runs lie beyond it", minBeyond))
		}
	}
	return rep, nil
}

func endToEndValues(v map[string]float64, setup []time.Duration, o outcome) {
	v["setup_s"] = median(msAll(setup)) / 1000
	v["runs_per_s"] = o.runsPerSec()
	v["run_p50_ms"], _ = percentile(msAll(o.runTimes), 50)
	v["max_rss_mb"] = maxRSSMB()
}

// perLayerValues derives the per-layer metrics from the profiled pass p,
// using the unprofiled pass u only for the tracing overhead and the run
// time tail. That tail has no bound: the slow workloads time fewer than
// the 100 runs that would put ten beyond their 90th percentile.
func perLayerValues(v map[string]float64, u, p outcome) {
	for _, l := range layers {
		v[l+".self_s"] = p.cpu.self[l]
		v[l+".incl_s"] = p.cpu.incl[l]
	}
	wall := p.wall.Seconds()
	runs := float64(max(p.runs, 1))
	var busy time.Duration
	for _, d := range p.runTimes {
		busy += d
	}
	v["cpu.total_s"] = p.cpu.total
	v["cpu.util"] = p.cpu.total / (wall * float64(runtime.GOMAXPROCS(0)))
	v["mobisense.busy_frac"] = busy.Seconds() / (float64(p.workers) * wall)
	v["mobisense.run_p90_ms"], _ = percentile(msAll(u.runTimes), 90)
	v["mobisense.timed_runs"] = float64(len(u.runTimes))
	v["mobisense.scaling_eff"] = p.scalingEff
	v["mobisense.expand_ms"] = p50(p.spans["expand"])
	v["core.msgs_per_run"] = float64(p.messages) / runs
	if p.floorRuns > 0 {
		v["floor.placements_per_run"] = float64(p.placements) / float64(p.floorRuns)
	}
	v["coverage.samples_per_run"] = float64(p.coverageEvals) / runs
	if p.coverageEvals > 0 {
		v["coverage.us_per_sample"] = p.cpu.incl["coverage"] / float64(p.coverageEvals) * 1e6
	}
	v["store.bytes_per_run"] = float64(p.storeBytes) / runs
	v["store.readback_ms"] = p50(p.spans["readback"])
	for _, s := range []string{"submit", "cache_hit", "queue_wait", "records", "traces"} {
		v["server."+s+"_p50_ms"] = p50(p.spans[s])
	}
	jobMS := msAll(p.spans["job"])
	v["server.job_p50_ms"], _ = percentile(jobMS, 50)
	v["server.job_p90_ms"], _ = percentile(jobMS, 90)
	v["server.jobs_per_s"] = float64(p.jobs) / wall
	if p.jobs > 0 {
		v["server.sse_events_per_job"] = p.sseEvents / float64(p.jobs)
	}
	v["server.http_requests"] = p.httpRequests
	if p.res.usedCPU > 0 {
		v["runtime.gc_cpu_frac"] = p.res.gcCPU / p.res.usedCPU
	}
	v["runtime.alloc_mb_per_run"] = p.res.allocBytes / 1e6 / runs
	v["runtime.mallocs_per_run"] = p.res.mallocs / runs
	if u.runsPerSec() > 0 {
		v["trace.overhead"] = p.runsPerSec()/u.runsPerSec() - 1
	}
}

// maxRSSMB is the process's peak resident set size in megabytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// mix derives a well-spread, non-zero seed from a base seed and a path of
// indices (splitmix64 steps), so every pass, batch and client draws
// distinct inputs from one --seed.
func mix(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		return 1
	}
	return h
}

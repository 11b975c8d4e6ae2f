package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mobisense"
)

// sweepWorkload is a stream of identically shaped sweeps, each a batch of
// schemes × scenarios × repeats with a fresh seed, run back to back through
// Sweep.Run until the measuring time is up. Batches always finish, so every
// measured run belongs to a complete, checkable batch and the scheme and
// scenario mix is exact.
type sweepWorkload struct {
	schemes   []mobisense.Scheme
	scenarios []string
	n         int
	duration  float64
	repeats   int // per batch
	workers   int
	store     bool
	trace     *mobisense.TraceOptions
	// scalingRuns, when set, sizes a fixed sweep the profiled run times at
	// 1 and 2 workers (mobisense.scaling_eff).
	scalingRuns int
}

// setupReps is the least number of times a run sets its workload up;
// setup_s is the median.
const setupReps = 9

// Seed domains keep set-up, warm-up, measured passes and the scaling probe
// on distinct inputs derived from one --seed.
const (
	domainSetup = iota + 1
	domainWarm
	domainPass
	domainScaling
)

func (w sweepWorkload) sized() sweepWorkload {
	if smokeScale {
		w.n, w.duration, w.repeats = 30, 60, 1
		w.scalingRuns = min(w.scalingRuns, w.batchRuns())
	}
	return w
}

func (w sweepWorkload) sweep(seed uint64, repeats int) mobisense.Sweep {
	base := mobisense.DefaultConfig(w.schemes[0])
	base.N = w.n
	base.Duration = w.duration
	base.Trace = w.trace
	return mobisense.Sweep{Base: base, Schemes: w.schemes, Scenarios: w.scenarios, Repeats: repeats, Seed: seed}
}

func (w sweepWorkload) batchOptions(dir string) mobisense.BatchOptions {
	o := mobisense.BatchOptions{Workers: w.workers}
	if w.store {
		o.Store = &mobisense.Store{Dir: dir, Trace: w.trace != nil}
	}
	return o
}

func (w sweepWorkload) batchRuns() int { return len(w.schemes) * len(w.scenarios) * w.repeats }

// setUp does everything Sweep.Run does before its first run starts:
// Expand (field builds) and store creation. A context cancelled up front
// stops it exactly there.
func (w sweepWorkload) setUp(seed uint64, dir string) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := w.sweep(seed, w.repeats).Run(ctx, w.batchOptions(dir))
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("set-up: %v", err)
	}
	return nil
}

func (ws *sweepWorkload) run(name string, opt options, dir string, trace bool) ([]time.Duration, []outcome, error) {
	w := ws.sized()
	// Each set-up repetition is a fresh process on a fresh seed (see
	// coldSetup), so every field is built rather than served from the field
	// build cache. One repetition precedes each unprofiled batch rather
	// than all bunching up front, so set-up samples the same machine
	// conditions the batches do.
	var setup []time.Duration
	setupOnce := func() error {
		k := len(setup)
		d, err := coldSetup(name, mix(opt.seed, domainSetup, uint64(k)), filepath.Join(dir, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return fmt.Errorf("%s %w", name, err)
		}
		setup = append(setup, d)
		return nil
	}

	// A warm-up batch runs before anything is timed: the first batch of a
	// process runs markedly slower while the heap grows and caches fill, a
	// cost a long sweep pays once. It is checked like every other batch,
	// and it is the batch the golden digest and the lone rerun cover.
	warm, err := w.batch(name, filepath.Join(dir, "warmup"), mix(opt.seed, domainWarm), nil)
	if err != nil {
		return nil, nil, err
	}
	var warmed outcome
	w.check(&warmed, warm)
	w.checkGolden(&warmed, name, opt, warm)
	w.crossCheck(&warmed, warm)

	// The measured passes: the unprofiled one, and with trace a profiled
	// one. Their batches alternate, so both see the same machine conditions
	// and trace.overhead compares like with like. Batches run until each
	// pass has timed opt.seconds of them; each is checked as soon as it
	// finishes, outside the timed part, and only its counts are kept.
	n := 1
	if trace {
		n = 2
	}
	passes := make([]outcome, n)
	meters := make([]meter, n)
	conns := make([]connected, n)
	for p := range n {
		passes[p].workers = w.workers
		meters[p].profile = p == 1
	}
	for b := 0; passes[0].wall.Seconds() < opt.seconds || passes[n-1].wall.Seconds() < opt.seconds; b++ {
		p, o, m := b%n, &passes[b%n], &meters[b%n]
		if p == 0 {
			if err := setupOnce(); err != nil {
				return nil, nil, err
			}
		}
		if err := m.begin(); err != nil {
			return nil, nil, err
		}
		bt, err := w.batch(name, filepath.Join(dir, fmt.Sprintf("batch%03d", b)), mix(opt.seed, domainPass, uint64(b)), o)
		if err == nil {
			err = m.end()
		}
		if err != nil {
			return nil, nil, err
		}
		o.wall += bt.wall
		w.check(o, bt)
		conns[p].add(bt)
	}
	for p := range n {
		meters[p].record(&passes[p])
	}
	passes[0].info = conns[0].lines()
	if trace && w.scalingRuns > 0 {
		w.scalingProbe(opt.seed, &passes[1])
	}
	for len(setup) < setupReps {
		if err := setupOnce(); err != nil {
			return nil, nil, err
		}
	}
	// Only the warm-up's checks count; its timings and counts do not.
	passes[0].merge(outcome{attempted: warmed.attempted, failed: warmed.failed, problems: warmed.problems})
	return setup, passes, nil
}

// sweepBatch is one executed sweep.
type sweepBatch struct {
	dir  string
	res  mobisense.SweepResult
	err  error
	wall time.Duration // Expand and Run
}

// batch expands and runs one sweep of the workload, recording the Expand
// span in o when it is given.
func (w sweepWorkload) batch(name, dir string, seed uint64, o *outcome) (sweepBatch, error) {
	sw := w.sweep(seed, w.repeats)
	start := time.Now()
	if _, err := sw.Expand(); err != nil {
		return sweepBatch{}, fmt.Errorf("%s: %w", name, err)
	}
	if o != nil {
		o.span("expand", time.Since(start))
	}
	res, err := sw.Run(context.Background(), w.batchOptions(dir))
	return sweepBatch{dir: dir, res: res, err: err, wall: time.Since(start)}, nil
}

// check validates one batch: every run succeeded with sane metrics, and
// the store (when there is one) reads back exactly the in-memory results.
// It also accumulates the batch's run times and per-layer counts.
func (w sweepWorkload) check(o *outcome, b sweepBatch) {
	o.attempted += w.batchRuns()
	if b.err != nil {
		o.fail("batch %s: %v", b.dir, b.err)
	}
	if len(b.res.Runs) != w.batchRuns() {
		o.fail("batch %s: %d runs, want %d", b.dir, len(b.res.Runs), w.batchRuns())
	}
	for _, r := range b.res.Runs {
		if r.Err != nil {
			o.fail("run %d: %v", r.Spec.Index, r.Err)
			continue
		}
		res := r.Result
		o.runs++
		o.runTimes = append(o.runTimes, res.Elapsed)
		o.messages += res.Messages
		o.coverageEvals += len(res.Trace) + 1
		if r.Spec.Scheme == mobisense.SchemeFLOOR {
			o.floorRuns++
			for _, c := range res.Placements {
				o.placements += c
			}
		}
		if msg := w.validate(res); msg != "" {
			o.fail("run %d (%s): %s", r.Spec.Index, r.Spec.Scheme, msg)
		}
	}
	if !w.store {
		return
	}
	for _, f := range []string{"records.jsonl", "timing.jsonl"} {
		if fi, err := os.Stat(filepath.Join(b.dir, f)); err == nil {
			o.storeBytes += fi.Size()
		}
	}
	t := time.Now()
	data, err := mobisense.LoadStores(b.dir)
	o.span("readback", time.Since(t))
	switch {
	case err != nil:
		o.fail("read back %s: %v", b.dir, err)
	case len(data.Runs) != len(b.res.Runs) || !data.Stores[0].Complete:
		o.fail("store %s: %d records (complete=%t), want %d", b.dir, len(data.Runs), data.Stores[0].Complete, len(b.res.Runs))
	default:
		for i, r := range data.Runs {
			if !sameMetrics(r.Result, b.res.Runs[i].Result) {
				o.fail("store %s: record %d differs from its run's result", b.dir, i)
			}
		}
	}
}

// validate checks one run's result for values no correct run produces.
func (w sweepWorkload) validate(r mobisense.Result) string {
	for _, v := range []float64{r.Coverage, r.Coverage2, r.AvgMoveDistance, r.ConvergenceTime} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Sprintf("non-finite or negative metric %v", v)
		}
	}
	switch {
	case r.Coverage > 1 || r.Coverage2 > r.Coverage:
		return fmt.Sprintf("coverage %v / 2-coverage %v out of order", r.Coverage, r.Coverage2)
	case r.Alive != w.n || len(r.Positions) != w.n:
		return fmt.Sprintf("%d alive, %d positions, want %d", r.Alive, len(r.Positions), w.n)
	case r.Messages <= 0:
		return fmt.Sprintf("%d messages", r.Messages)
	case r.Elapsed <= 0:
		return "no elapsed time"
	}
	if w.trace == nil {
		if len(r.Trace) != 0 {
			return "untraced run carries a trace"
		}
		return ""
	}
	if want := int(w.duration/w.trace.Stride) + 1; len(r.Trace) < want || r.Convergence == nil {
		return fmt.Sprintf("%d trace samples, want at least %d with convergence metrics", len(r.Trace), want)
	}
	for i, s := range r.Trace {
		if want := i%w.trace.LayoutStride == 0; want != (s.Layout != nil) || (want && len(s.Layout) != s.Alive) {
			return fmt.Sprintf("trace sample %d: layout of %d sensors, captured=%t", i, len(s.Layout), want)
		}
	}
	return ""
}

// sameMetrics reports whether two results agree on every metric a store
// record carries.
func sameMetrics(a, b mobisense.Result) bool {
	return a.Coverage == b.Coverage && a.Coverage2 == b.Coverage2 && a.Alive == b.Alive &&
		a.AvgMoveDistance == b.AvgMoveDistance && a.Messages == b.Messages &&
		a.ConvergenceTime == b.ConvergenceTime && a.Connected == b.Connected &&
		len(a.Trace) == len(b.Trace) && (a.Convergence == nil) == (b.Convergence == nil) &&
		(a.Convergence == nil || *a.Convergence == *b.Convergence)
}

// crossCheck reruns the batch's first run on its own through Run and
// requires the pooled, cache-sharing batch path to have produced the same
// result.
func (w sweepWorkload) crossCheck(o *outcome, b sweepBatch) {
	if len(b.res.Runs) == 0 || b.res.Runs[0].Err != nil {
		return
	}
	o.attempted++
	first := b.res.Runs[0]
	res, err := mobisense.Run(first.Spec.Config)
	if err != nil || !sameMetrics(res, first.Result) {
		o.fail("run %d rerun alone differs from its batch result (err %v)", first.Spec.Index, err)
	}
}

// checkGolden compares the first batch of the default seed with its
// recorded digest (or records it with -update-golden): the store's
// records.jsonl, or the per-run metrics when the workload has no store.
func (w sweepWorkload) checkGolden(o *outcome, name string, opt options, b sweepBatch) {
	if smokeScale || opt.seed != defaultSeed || b.err != nil {
		return
	}
	var data []byte
	if w.store {
		var err error
		if data, err = os.ReadFile(filepath.Join(b.dir, "records.jsonl")); err != nil {
			o.fail("golden: %v", err)
			return
		}
	} else {
		var sb strings.Builder
		for _, r := range b.res.Runs {
			res := r.Result
			fmt.Fprintf(&sb, "%d %s %v %v %d %v %d %v %t\n", r.Spec.Index, r.Spec.Scheme, res.Coverage,
				res.Coverage2, res.Alive, res.AvgMoveDistance, res.Messages, res.ConvergenceTime, res.Connected)
		}
		data = []byte(sb.String())
	}
	o.attempted++
	sum := sha256.Sum256(data)
	compareGolden(o, name, opt, hex.EncodeToString(sum[:]))
}

// scalingProbe runs one fixed sweep, with its fields built beforehand, at
// 1, 2, 2 and 1 workers, and reports the parallel efficiency. The balanced
// order cancels a host speed drift that is steady over the probe. Every
// result set must be identical.
func (w sweepWorkload) scalingProbe(seed uint64, o *outcome) {
	sw := w.sweep(mix(seed, domainScaling), w.scalingRuns/(len(w.schemes)*len(w.scenarios)))
	if _, err := sw.Expand(); err != nil {
		o.fail("scaling probe: %v", err)
		return
	}
	var secs [3]float64 // by worker count
	var first []mobisense.BatchResult
	o.attempted++
	for _, workers := range []int{1, 2, 2, 1} {
		start := time.Now()
		res, err := sw.Run(context.Background(), mobisense.BatchOptions{Workers: workers})
		secs[workers] += time.Since(start).Seconds()
		if err != nil {
			o.fail("scaling probe at %d workers: %v", workers, err)
			return
		}
		if first == nil {
			first = res.Runs
			continue
		}
		if len(res.Runs) != len(first) {
			o.fail("scaling probe: %d runs at %d workers, %d at 1", len(res.Runs), workers, len(first))
			return
		}
		for i := range first {
			if first[i].Err != nil || !sameMetrics(first[i].Result, res.Runs[i].Result) {
				o.fail("scaling probe: run %d differs between 1 and %d workers", i, workers)
				return
			}
		}
	}
	o.scalingEff = secs[1] / (2 * secs[2])
}

// connected counts, per scheme, the runs ending fully connected. It is
// printed for information; the benchmark does not judge it.
type connected struct {
	order       []mobisense.Scheme
	total, conn map[mobisense.Scheme]int
}

func (c *connected) add(b sweepBatch) {
	if c.total == nil {
		c.total, c.conn = map[mobisense.Scheme]int{}, map[mobisense.Scheme]int{}
	}
	for _, r := range b.res.Runs {
		if r.Err != nil {
			continue
		}
		if c.total[r.Spec.Scheme] == 0 {
			c.order = append(c.order, r.Spec.Scheme)
		}
		c.total[r.Spec.Scheme]++
		if r.Result.Connected {
			c.conn[r.Spec.Scheme]++
		}
	}
}

func (c *connected) lines() []string {
	var out []string
	for _, s := range c.order {
		out = append(out, fmt.Sprintf("connected %s %d/%d", s, c.conn[s], c.total[s]))
	}
	return out
}

package mobisense

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"reflect"
	"sort"
	"sync"
	"time"

	istore "mobisense/internal/store"
)

// Store points the batch runner at an on-disk sweep store: a directory
// holding a manifest, a records.jsonl with one deterministic record per
// finished run (streamed as runs complete, constant memory at any sweep
// size), and a timing.jsonl sidecar with the explicitly non-deterministic
// wall-clock section of each record.
//
// Attach one to BatchOptions.Store. Without Resume the directory must not
// already hold a store; with Resume an existing store is validated against
// the sweep (axes, base-config fingerprint, shard) and every run already
// recorded is replayed from disk instead of re-executed.
type Store struct {
	// Dir is the store directory (created on first use).
	Dir string
	// Resume allows continuing an interrupted sweep in Dir.
	Resume bool
	// Layouts persists each run's full initial and final sensor layouts in
	// its record, making stored runs replayable for layout post-processing
	// (fig11-style Hungarian lower bounds) at the cost of record size.
	// Resuming a store across a Layouts change is refused.
	Layouts bool
	// Trace persists each run's per-tick telemetry series (Result.Trace)
	// in its record. It only has an effect when the batch's configs set
	// Config.Trace; like Layouts, resuming a store across a Trace change
	// is refused.
	Trace bool
}

// storeSession is one batch's open store: the streaming writer plus the
// replay index of records already on disk.
type storeSession struct {
	w        *istore.Writer
	layouts  bool
	trace    bool
	existing map[string]istore.Record

	mu  sync.Mutex
	err error // first append failure
}

// begin opens (or creates) the store for a batch described by m. A nil
// *Store begins a nil session, which every method tolerates.
func (st *Store) begin(m istore.Manifest) (*storeSession, error) {
	if st == nil {
		return nil, nil
	}
	if st.Dir == "" {
		return nil, fmt.Errorf("mobisense: store has no directory")
	}
	var (
		w    *istore.Writer
		recs []istore.Record
		err  error
	)
	if st.Resume {
		w, recs, err = istore.Open(st.Dir, m)
		if isNotAStore(err) {
			// Resuming into a fresh directory starts a new store.
			w, err = istore.Create(st.Dir, m)
		}
	} else {
		w, err = istore.Create(st.Dir, m)
	}
	if err != nil {
		return nil, err
	}
	sess := &storeSession{w: w, layouts: st.Layouts, trace: st.Trace, existing: make(map[string]istore.Record, len(recs))}
	for _, r := range recs {
		sess.existing[r.Key()] = r
	}
	return sess, nil
}

// isNotAStore reports whether err means "no store here yet" (as opposed to
// a store we failed to read).
func isNotAStore(err error) bool {
	var pathErr *fs.PathError
	return errors.As(err, &pathErr) && errors.Is(err, fs.ErrNotExist)
}

// lookup returns the stored record for a spec, if present.
func (s *storeSession) lookup(sp RunSpec) (istore.Record, bool) {
	rec, ok := s.existing[specKey(sp)]
	return rec, ok
}

// append streams one finished run to disk. Failures are remembered and
// surfaced once at close; the batch itself keeps running.
func (s *storeSession) append(seq int, sp RunSpec, res Result, runErr error, elapsed time.Duration) {
	rec := recordFrom(sp, res, runErr, s.layouts)
	if s.trace {
		// Append encodes the record before returning, so the record can
		// share the result's slices.
		rec.Trace = res.Trace
		rec.Convergence = res.Convergence
	}
	if err := s.w.Append(seq, rec, elapsed); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
}

func (s *storeSession) close() error {
	err := s.w.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return err
}

// specKey is the run's store identity: axes + derived seed + per-run
// config fingerprint.
func specKey(sp RunSpec) string {
	return recordFrom(sp, Result{}, nil, false).Key()
}

// recordFrom converts one finished run into its deterministic store
// record. Wall-clock time is deliberately absent (it lives in the timing
// sidecar) so stored sweeps diff byte-identically across worker counts.
// With layouts set, the run's initial and final positions are persisted
// too.
func recordFrom(sp RunSpec, res Result, runErr error, layouts bool) istore.Record {
	rec := istore.Record{
		Index:             sp.Index,
		Scheme:            string(sp.Scheme),
		Scenario:          sp.Scenario,
		N:                 sp.N,
		Repeat:            sp.Repeat,
		Axes:              sp.Axes,
		Seed:              sp.Seed,
		ConfigFingerprint: configFingerprint(sp.Config),
	}
	if runErr != nil {
		rec.Err = runErr.Error()
		return rec
	}
	rec.Coverage = res.Coverage
	rec.Coverage2 = res.Coverage2
	rec.Alive = res.Alive
	rec.AvgMoveDistance = res.AvgMoveDistance
	rec.Messages = res.Messages
	rec.ConvergenceTime = res.ConvergenceTime
	rec.Connected = res.Connected
	rec.IncorrectCells = res.IncorrectVoronoiCells
	if layouts {
		rec.Positions = res.Positions
		rec.InitialPositions = res.InitialPositions
	}
	return rec
}

// replayedResult reconstructs a BatchResult from a stored record. The
// aggregate metrics always survive the round trip; layouts do only when
// the store was written with Store.Layouts, and message breakdowns never
// do.
func replayedResult(sp RunSpec, rec istore.Record) BatchResult {
	br := BatchResult{Spec: sp}
	if rec.Err != "" {
		br.Err = errors.New(rec.Err)
		return br
	}
	br.Result = resultFromRecord(rec)
	return br
}

func resultFromRecord(rec istore.Record) Result {
	return Result{
		Scheme:                Scheme(rec.Scheme),
		Coverage:              rec.Coverage,
		Coverage2:             rec.Coverage2,
		Alive:                 rec.Alive,
		AvgMoveDistance:       rec.AvgMoveDistance,
		Messages:              rec.Messages,
		ConvergenceTime:       rec.ConvergenceTime,
		Connected:             rec.Connected,
		IncorrectVoronoiCells: rec.IncorrectCells,
		Positions:             rec.Positions,
		InitialPositions:      rec.InitialPositions,
		Trace:                 rec.Trace,
		Convergence:           rec.Convergence,
	}
}

// configFingerprint hashes every non-axis parameter of a config — ranges,
// speeds, horizons, option structs and the field geometry — so that two
// runs share a fingerprint exactly when they are the same computation
// modulo the sweep axes (scheme, N, seed are keyed separately).
func configFingerprint(c Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "rc=%g rs=%g v=%g T=%g D=%g cluster=%t res=%g",
		c.Rc, c.Rs, c.Speed, c.Period, c.Duration, c.ClusterInit, c.coverageRes())
	if st := c.Stabilize; st != nil {
		fmt.Fprintf(h, " stab=%g/%g", st.Cap, st.Chunk)
	}
	if fo := c.Failures; fo != nil {
		fmt.Fprintf(h, " fail=%g/%d", fo.Interval, fo.MaxKills)
	}
	if tr := c.Trace; tr != nil {
		fmt.Fprintf(h, " trace=%g", tr.stride(c.Period))
		// The layouts and stride markers are appended only when set, so
		// traced configs from before each option keep their fingerprint.
		if tr.Layouts {
			io.WriteString(h, " layouts")
		}
		if tr.LayoutStride > 1 {
			fmt.Fprintf(h, " lstride=%d", tr.LayoutStride)
		}
	}
	if o := c.CPVF; o != nil {
		fmt.Fprintf(h, " cpvf=%s/%g/%t/%g/%t",
			o.Oscillation, o.Delta, o.DisallowParentChange, o.ForceGain, o.DisableLazy)
	}
	if o := c.Floor; o != nil {
		fmt.Fprintf(h, " floor=%d/%g/%t/%t",
			o.TTL, o.ExclusiveFrac, o.DirectConnectWalk, o.DisablePriority)
	}
	if o := c.VD; o != nil {
		fmt.Fprintf(h, " vd=%d/%t/%t", o.Rounds, o.NoExplosion, o.PerfectKnowledge)
	}
	if f := c.Field.internal(); f != nil {
		b := f.Bounds()
		ref := f.Reference()
		fmt.Fprintf(h, " field=%g,%g,%g,%g ref=%g,%g",
			b.Min.X, b.Min.Y, b.Max.X, b.Max.Y, ref.X, ref.Y)
		for _, poly := range f.Obstacles() {
			io.WriteString(h, " o")
			for _, v := range poly {
				fmt.Fprintf(h, "=%g,%g", v.X, v.Y)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// combinedFingerprint condenses an explicit config list (RunBatch) into
// one manifest fingerprint: the hash of every run's key in order.
func combinedFingerprint(specs []RunSpec) string {
	h := fnv.New64a()
	for _, sp := range specs {
		io.WriteString(h, specKey(sp))
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// StoreInfo describes one loaded store directory.
type StoreInfo struct {
	Dir string
	// Kind is "sweep" or "batch".
	Kind string
	// ShardIndex/ShardCount place the store in a sharded sweep.
	ShardIndex, ShardCount int
	// TotalRuns is the shard's expected record count; Records is how many
	// are actually on disk; Complete is the manifest's completion mark.
	TotalRuns, Records int
	Complete           bool
	// Fields are the environment specs embedded in the store's manifest
	// (empty for stores written before the field-spec refactor). They
	// make a foreign store reproducible: rebuild any entry with
	// BuildFieldSpec and re-run its records' configs.
	Fields []StoreField
	// Elapsed is the total wall-clock compute time recorded in the store's
	// timing sidecar (non-deterministic, informational).
	Elapsed time.Duration
}

// StoreField is one embedded environment of a store: the scenario name
// (empty for a custom field) and its declarative spec.
type StoreField struct {
	Scenario string
	Spec     FieldSpec
}

// StoreData is the merged content of one or more store directories —
// typically the shards of one sweep run on different machines.
type StoreData struct {
	Stores []StoreInfo
	// Runs holds every stored run, sorted by sweep expansion index, so the
	// merged order (and therefore the aggregate order) reproduces the
	// unsharded sweep exactly.
	Runs []BatchResult
	// Aggregates are recomputed from the stored records.
	Aggregates []Aggregate
}

// LoadStores reads one or more stores and merges their records into a
// single result set with recomputed aggregates. Each argument is a local
// store directory or an http(s) URL of a deployment server's
// /v1/jobs/{id}/store endpoint. All stores must hold the same sweep
// (matching kind, axes and base-config fingerprint); duplicate records
// are deduplicated, and records that disagree for the same key are an
// error.
func LoadStores(dirs ...string) (StoreData, error) {
	if len(dirs) == 0 {
		return StoreData{}, fmt.Errorf("mobisense: LoadStores with no directories")
	}
	var data StoreData
	var ref istore.Manifest
	byKey := map[string]istore.Record{}
	for i, dir := range dirs {
		m, recs, err := istore.ReadDir(dir)
		if err != nil {
			return StoreData{}, err
		}
		if i == 0 {
			ref = m
		} else if !sameSweep(ref, m) {
			return StoreData{}, fmt.Errorf("mobisense: %s holds a different sweep than %s (mismatched axes or config)", dir, dirs[0])
		}
		times, err := istore.ReadTimings(dir)
		if err != nil {
			return StoreData{}, err
		}
		var elapsed time.Duration
		for _, d := range times {
			elapsed += d
		}
		var specs []StoreField
		for _, fe := range m.Fields {
			specs = append(specs, StoreField{Scenario: fe.Scenario, Spec: fe.Spec})
		}
		data.Stores = append(data.Stores, StoreInfo{
			Dir:        dir,
			Kind:       m.Kind,
			ShardIndex: m.ShardIndex,
			ShardCount: m.ShardCount,
			TotalRuns:  m.TotalRuns,
			Records:    len(recs),
			Complete:   m.Complete,
			Fields:     specs,
			Elapsed:    elapsed,
		})
		for _, rec := range recs {
			k := rec.Key()
			if prev, dup := byKey[k]; dup {
				// Records carry slices (layouts), so equality is deep.
				if !reflect.DeepEqual(prev, rec) {
					return StoreData{}, fmt.Errorf("mobisense: stores disagree on run %s", k)
				}
				continue
			}
			byKey[k] = rec
		}
	}

	data.Runs = make([]BatchResult, 0, len(byKey))
	for _, rec := range byKey {
		sp := RunSpec{
			Index:    rec.Index,
			Scheme:   Scheme(rec.Scheme),
			Scenario: rec.Scenario,
			N:        rec.N,
			Repeat:   rec.Repeat,
			Axes:     rec.Axes,
			Seed:     rec.Seed,
		}
		data.Runs = append(data.Runs, replayedResult(sp, rec))
	}
	sort.Slice(data.Runs, func(i, j int) bool { return data.Runs[i].Spec.Index < data.Runs[j].Spec.Index })
	data.Aggregates = aggregateRuns(data.Runs)
	return data, nil
}

// sameSweep reports whether two manifests describe the same sweep,
// ignoring shard placement and completion state. Embedded field specs
// are compared only when both stores carry them, so shards written
// before the field-spec refactor still merge with newer ones.
func sameSweep(a, b istore.Manifest) bool {
	a.ShardIndex, b.ShardIndex = 0, 0
	a.ShardCount, b.ShardCount = 0, 0
	a.TotalRuns, b.TotalRuns = 0, 0
	a.Complete, b.Complete = false, false
	if a.Fields == nil || b.Fields == nil {
		a.Fields, b.Fields = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// Package store persists batch and sweep runs to disk as they finish.
//
// A store is a directory with three files:
//
//   - manifest.json — the sweep's identity: axes, base-config fingerprint,
//     shard index/count, expected run count and completion state. Every
//     field is a pure function of the sweep definition, so the manifest is
//     byte-identical across machines and worker counts.
//   - records.jsonl — one JSON record per completed run, appended as runs
//     finish. Records hold only deterministic quantities (axes, derived
//     seed, metrics), and the writer flushes them in dispatch order, so the
//     file diffs byte-identically across worker counts. Memory stays
//     constant for arbitrarily large sweeps: at most one pending record per
//     in-flight worker is buffered.
//   - timing.jsonl — the explicitly non-deterministic section of each
//     record (wall-clock elapsed time), keyed by record key and appended in
//     completion order. Tooling that compares or merges stores ignores it.
//
// Records are keyed by the run's axes plus its deterministic derived seed
// and per-run config fingerprint, which is what makes sweeps resumable:
// re-running against an existing store skips every key already on disk.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"mobisense/internal/field"
	"mobisense/internal/metrics"
)

// bytesWritten counts every record and timing byte any store writer in
// the process appends — the store_bytes_written_total series of the
// deployment service's /metrics endpoint. The handle is resolved once;
// updating it is a single atomic add on the append path.
var bytesWritten = metrics.Default.Counter("store_bytes_written_total")

// Version is the store layout version written to manifests.
const Version = 1

const (
	manifestFile = "manifest.json"
	recordsFile  = "records.jsonl"
	timingFile   = "timing.jsonl"
)

// SweepAxes records the sweep definition that produced a store, for
// resume-compatibility checks and reporting. Every field is omitted when
// empty, so pre-axis manifests load unchanged and axis-free sweeps keep
// writing byte-identical manifests.
type SweepAxes struct {
	Schemes   []string `json:"schemes,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
	Ns        []int    `json:"ns,omitempty"`
	// Axes are the sweep's generalized parameter dimensions (rc, rs,
	// speed, scheme options, custom axes) by name and ordered value list.
	Axes []Axis `json:"axes,omitempty"`
	// FixedSeed marks a sweep whose runs all use Seed verbatim instead of
	// per-combination derived seeds (paired parameter studies).
	FixedSeed bool   `json:"fixed_seed,omitempty"`
	Repeats   int    `json:"repeats,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
}

// Axis is one generalized sweep dimension as persisted in a manifest.
// Numeric axes fill Values; categorical (string-valued) axes fill
// Strings. Numeric manifests keep their pre-categorical byte layout.
type Axis struct {
	Name    string    `json:"name"`
	Values  []float64 `json:"values"`
	Strings []string  `json:"strings,omitempty"`
}

// FieldEntry embeds one environment's declarative geometry in a
// manifest: the field spec behind a scenario name (or behind the sweep's
// inline/custom field, with an empty Scenario). A store carrying its
// FieldEntries is reproducible on a machine without the originating
// binary or spec files.
type FieldEntry struct {
	Scenario string     `json:"scenario,omitempty"`
	Spec     field.Spec `json:"spec"`
}

// AxisValue is one axis assignment of an expanded run, carried on run
// specs, store records and aggregates. Numeric axes fill Value;
// categorical axes fill Str (a non-empty Str wins when rendering, and
// numeric records omit it, keeping pre-categorical records
// byte-identical).
type AxisValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Str   string  `json:"str,omitempty"`
}

// ValueString renders the assignment's value for keys, tables and CSV
// columns: the categorical string, or the compact lossless numeric form
// (integer values render without a decimal point).
func (a AxisValue) ValueString() string {
	if a.Str != "" {
		return a.Str
	}
	return strconv.FormatFloat(a.Value, 'g', -1, 64)
}

// Manifest identifies a store: what sweep it holds, which shard of it, and
// whether all expected records are present. It contains no wall-clock
// fields so that a sweep's manifest is reproducible bit for bit.
type Manifest struct {
	Version int `json:"version"`
	// Kind is "sweep" for Sweep.Run stores and "batch" for RunBatch stores.
	Kind  string    `json:"kind"`
	Sweep SweepAxes `json:"sweep,omitzero"`
	// Fields are the declarative specs of the sweep's environments, one
	// per scenario (or one nameless entry for a custom field). Stores
	// written before the field-spec refactor omit them; compatibility
	// checks only compare Fields when both manifests carry them.
	Fields []FieldEntry `json:"fields,omitempty"`
	// ConfigFingerprint hashes the non-axis base configuration (ranges,
	// speeds, horizons, scheme options); resuming with a different base
	// config is refused.
	ConfigFingerprint string `json:"config_fingerprint"`
	// ShardIndex/ShardCount place this store in a cross-machine sharding
	// (0/1 when unsharded).
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// TotalRuns is the number of records this shard will hold when done.
	TotalRuns int `json:"total_runs"`
	// Layouts is set when the store's records carry full sensor layouts
	// (positions sections). Mixing layout and non-layout sessions in one
	// store would leave records with inconsistent replay fidelity, so
	// resuming across the flag is refused.
	Layouts bool `json:"layouts,omitempty"`
	// Trace is set when the store's records carry per-tick telemetry
	// series. Like Layouts it gates resume: a store must be uniformly
	// traced or untraced. Untraced stores omit the flag, keeping pre-trace
	// manifests byte-identical.
	Trace bool `json:"trace,omitempty"`
	// TraceLayouts is set when the trace samples additionally carry
	// per-sample layout snapshots (replay animation). It gates resume the
	// same way Trace does, and stores without snapshots omit it so their
	// manifests stay byte-identical.
	TraceLayouts bool `json:"trace_layouts,omitempty"`
	// Complete is set once all TotalRuns records are on disk.
	Complete bool `json:"complete"`
}

// compatible reports whether a store created with manifest m can be
// resumed by a runner expecting manifest n (everything but the completion
// state must match). Embedded field specs are compared only when both
// manifests carry them: pre-spec stores have none, and refusing to
// resume them would orphan every store written before the refactor. The
// geometry is still guarded — the base-config fingerprint hashes it, and
// every record key carries a per-run config fingerprint.
func (m Manifest) compatible(n Manifest) bool {
	m.Complete, n.Complete = false, false
	if m.Fields == nil || n.Fields == nil {
		m.Fields, n.Fields = nil, nil
	}
	return reflect.DeepEqual(m, n)
}

// Record is the deterministic result of one completed run: its axes, the
// derived seed and config fingerprint that key it, and the metrics the
// aggregates are computed from. Wall-clock time lives in Timing, not here.
type Record struct {
	// Index is the run's position in the full (unsharded) sweep expansion;
	// merging shards sorts by it to reproduce the unsharded order.
	Index    int    `json:"index"`
	Scheme   string `json:"scheme"`
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n"`
	Repeat   int    `json:"repeat"`
	// Axes are the run's generalized axis assignments, in axis order;
	// omitted for axis-free runs so pre-axis records round-trip unchanged.
	Axes              []AxisValue `json:"axes,omitempty"`
	Seed              uint64      `json:"seed"`
	ConfigFingerprint string      `json:"config_fingerprint"`
	Coverage          float64     `json:"coverage"`
	Coverage2         float64     `json:"coverage2"`
	Alive             int         `json:"alive"`
	AvgMoveDistance   float64     `json:"avg_move_distance"`
	Messages          int64       `json:"messages"`
	ConvergenceTime   float64     `json:"convergence_time"`
	Connected         bool        `json:"connected"`
	IncorrectCells    int         `json:"incorrect_voronoi_cells,omitempty"`
	// Positions and InitialPositions are the run's final and starting
	// sensor layouts, persisted only when the store was created with
	// Manifest.Layouts — they make stored runs fully replayable (layout
	// post-processing like Hungarian lower bounds) at the cost of record
	// size. Both are deterministic, so layout stores still diff
	// byte-identically across worker counts.
	Positions        []Point `json:"positions,omitempty"`
	InitialPositions []Point `json:"initial_positions,omitempty"`
	// Trace is the run's per-tick telemetry series, persisted only when
	// the store was created with Manifest.Trace. The samples are pure
	// functions of the run's config and seed, so traced stores still diff
	// byte-identically across worker counts.
	Trace []TraceSample `json:"trace,omitempty"`
	// Convergence holds the trace-derived convergence metrics, present
	// exactly when Trace is.
	Convergence *Convergence `json:"convergence,omitempty"`
	// Err is the run's error message ("" on success); failed runs are
	// recorded too so a resume does not retry deterministic failures.
	Err string `json:"err,omitempty"`
}

// Point is a 2-D point in meters: a sensor position in run results and
// store records.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// TraceSample is one per-tick telemetry observation of a running
// deployment: how the paper's evaluation quantities evolve on the way to
// the final layout, not just where they end up.
type TraceSample struct {
	// Time is the simulation clock of the sample in seconds.
	Time float64 `json:"t"`
	// Coverage is the instantaneous 1-coverage fraction.
	Coverage float64 `json:"coverage"`
	// Connected is the number of alive sensors unit-disk reachable from
	// the base station at the sample time.
	Connected int `json:"connected"`
	// Alive is the number of non-failed sensors; Moving how many of them
	// are mid-step.
	Alive  int `json:"alive"`
	Moving int `json:"moving"`
	// TotalMoved is the summed cumulative moving distance in meters over
	// all sensors; MaxMoved the largest single sensor's.
	TotalMoved float64 `json:"total_moved"`
	MaxMoved   float64 `json:"max_moved"`
	// Layout is the alive-sensor layout at the sample time, captured only
	// when the run's trace options ask for layouts; stores keep it only
	// when created with Manifest.TraceLayouts.
	Layout []Point `json:"layout,omitempty"`
}

// Convergence summarizes how one traced run approached its final state —
// the paper's §6 evaluation is about these transients, not just the end
// point. All times are simulation seconds read off the trace grid, so
// their resolution is the trace stride.
type Convergence struct {
	// TimeTo90Coverage / TimeTo99Coverage are the first sample times at
	// which coverage reached 90% / 99% of the run's final coverage.
	TimeTo90Coverage float64 `json:"t90"`
	TimeTo99Coverage float64 `json:"t99"`
	// TimeToConnectivity is the earliest sample time from which every
	// alive sensor stayed base-station reachable through the end of the
	// trace; -1 when the final sample is not fully connected.
	TimeToConnectivity float64 `json:"tconn"`
	// SettlingTime is the earliest sample time from which no sensor moved
	// (and no distance accrued) through the end of the trace; the final
	// sample time when the run never settled.
	SettlingTime float64 `json:"settle"`
	// TotalMovedAtSettle / MaxMovedAtSettle are the cumulative movement
	// totals at the settling sample — the movement cost of convergence.
	TotalMovedAtSettle float64 `json:"settle_total_moved"`
	MaxMovedAtSettle   float64 `json:"settle_max_moved"`
}

// Key identifies a run within a sweep: every axis value plus the derived
// seed and the per-run config fingerprint. Two runs share a key exactly
// when they are the same deterministic computation. Axis-free records
// produce the exact pre-axis key, so old stores keep resuming.
func (r Record) Key() string {
	k := fmt.Sprintf("%s|%s|n%d|r%d|s%016x|c%s",
		r.Scheme, r.Scenario, r.N, r.Repeat, r.Seed, r.ConfigFingerprint)
	for _, a := range r.Axes {
		k += fmt.Sprintf("|%s=%s", a.Name, a.ValueString())
	}
	return k
}

// Timing is the non-deterministic sidecar section of one record.
type Timing struct {
	Key       string `json:"key"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// Writer appends records to a store directory. Append may be called from
// many goroutines; records flush to disk in seq order (the deterministic
// dispatch order) regardless of completion order, buffering at most the
// in-flight window.
type Writer struct {
	dir      string
	manifest Manifest

	mu      sync.Mutex
	records *os.File
	timing  *os.File
	next    int            // next seq to flush
	pending map[int][]byte // out-of-order completed records
	times   map[int][]byte // their timing lines
	written int            // records on disk (including replayed ones)
	closed  bool
}

// Create initializes a new store directory with the given manifest. It
// fails if the directory already holds a store.
func Create(dir string, m Manifest) (*Writer, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store (resume instead?)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m.Version = Version
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return newWriter(dir, m, 0)
}

// Open resumes an existing store, validating that its manifest matches the
// expected one, and returns the records already on disk alongside the
// writer. A truncated trailing line (killed mid-write) is dropped — and
// physically truncated away, so appended records never merge into it.
func Open(dir string, want Manifest) (*Writer, []Record, error) {
	want.Version = Version
	got, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if !got.compatible(want) {
		return nil, nil, fmt.Errorf("store: %s holds a different sweep (manifest mismatch: have %+v, want %+v)", dir, got, want)
	}
	path := filepath.Join(dir, recordsFile)
	recs, intact, err := readRecords(path)
	if err != nil {
		return nil, nil, err
	}
	if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > intact {
		if err := os.Truncate(path, intact); err != nil {
			return nil, nil, fmt.Errorf("store: drop torn record tail: %w", err)
		}
	}
	w, err := newWriter(dir, want, len(recs))
	if err != nil {
		return nil, nil, err
	}
	return w, recs, nil
}

func newWriter(dir string, m Manifest, existing int) (*Writer, error) {
	rf, err := os.OpenFile(filepath.Join(dir, recordsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	tf, err := os.OpenFile(filepath.Join(dir, timingFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		rf.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Writer{
		dir:      dir,
		manifest: m,
		records:  rf,
		timing:   tf,
		pending:  map[int][]byte{},
		times:    map[int][]byte{},
		written:  existing,
	}, nil
}

// Append stores one completed run. seq is the record's position in this
// session's dispatch order; records reach the file in seq order no matter
// which worker finishes first, so the stored bytes are independent of the
// worker count.
func (w *Writer) Append(seq int, rec Record, elapsed time.Duration) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	tline, err := json.Marshal(Timing{Key: rec.Key(), ElapsedNS: int64(elapsed)})
	if err != nil {
		return fmt.Errorf("store: encode timing: %w", err)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: append after close")
	}
	w.pending[seq] = append(line, '\n')
	w.times[seq] = append(tline, '\n')
	for {
		line, ok := w.pending[w.next]
		if !ok {
			return nil
		}
		if _, err := w.records.Write(line); err != nil {
			return fmt.Errorf("store: write record: %w", err)
		}
		if _, err := w.timing.Write(w.times[w.next]); err != nil {
			return fmt.Errorf("store: write timing: %w", err)
		}
		bytesWritten.Add(int64(len(line) + len(w.times[w.next])))
		delete(w.pending, w.next)
		delete(w.times, w.next)
		w.next++
		w.written++
	}
}

// Close flushes and closes the store files and, when every expected record
// is present, rewrites the manifest with Complete set.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var firstErr error
	if len(w.pending) > 0 {
		// A dispatch-order gap means a dispatched run never reported; keep
		// the contiguous prefix (everything on disk stays valid) and
		// surface the anomaly.
		firstErr = fmt.Errorf("store: %d completed record(s) stranded behind a dispatch gap", len(w.pending))
	}
	if err := w.records.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := w.timing.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if w.written >= w.manifest.TotalRuns && !w.manifest.Complete {
		w.manifest.Complete = true
		if err := writeManifest(w.dir, w.manifest); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func writeManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	data = append(data, '\n')
	// Write-then-rename so a crash never leaves a half-written manifest.
	tmp := filepath.Join(dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestFile)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadDir loads a store: its manifest and every intact record. A
// truncated trailing record line (process killed mid-write, or an append
// racing the read) is dropped; corruption anywhere else is an error. dir
// may be a local directory or a remote store URL (see IsRemote).
func ReadDir(dir string) (Manifest, []Record, error) {
	if IsRemote(dir) {
		return readDirRemote(dir)
	}
	m, err := readManifest(dir)
	if err != nil {
		return m, nil, err
	}
	recs, _, err := readRecords(filepath.Join(dir, recordsFile))
	if err != nil {
		return m, nil, err
	}
	return m, recs, nil
}

func readManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return m, fmt.Errorf("store: %s is not a store: %w", dir, err)
	}
	if err := decodeManifest(bytes.NewReader(data), &m); err != nil {
		return m, fmt.Errorf("store: %s manifest: %w", dir, err)
	}
	if m.Version != Version {
		return m, fmt.Errorf("store: %s has layout version %d, want %d", dir, m.Version, Version)
	}
	return m, nil
}

func decodeManifest(src io.Reader, m *Manifest) error {
	return json.NewDecoder(src).Decode(m)
}

// readRecords parses a records file, returning the intact records and the
// byte offset just past the last one — the point a resuming writer must
// truncate to so new appends never merge into a torn tail.
func readRecords(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	recs, intact, err := ParseRecords(f)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %s: %w", path, err)
	}
	return recs, intact, nil
}

// ParseRecords parses a records.jsonl stream, returning the intact
// records and the byte offset just past the last one. The stream need
// not be a local file — the deployment server's store endpoints let
// remote watchers parse a records tail over HTTP — and a torn or
// still-being-appended final line is silently dropped, exactly as when
// resuming a local store.
func ParseRecords(src io.Reader) ([]Record, int64, error) {
	var recs []Record
	r := bufio.NewReaderSize(src, 64*1024)
	var offset, intact int64
	lineNo := 0
	for {
		line, err := r.ReadBytes('\n')
		offset += int64(len(line))
		lineNo++
		complete := err == nil
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var rec Record
			if jsonErr := json.Unmarshal(trimmed, &rec); jsonErr != nil {
				if complete {
					// A parseable-length, newline-terminated line that is
					// garbage mid-file means real corruption, not a torn
					// final append.
					if _, peekErr := r.Peek(1); peekErr != io.EOF {
						return nil, 0, fmt.Errorf("line %d: corrupt record followed by more data", lineNo)
					}
				}
				// Torn tail (no newline, or undecodable final line): drop it.
				return recs, intact, nil
			}
			if !complete {
				// Valid JSON but no trailing newline: the final byte(s) of
				// the append may be missing; treat as torn.
				return recs, intact, nil
			}
			recs = append(recs, rec)
		}
		if complete {
			intact = offset
		}
		if err == io.EOF {
			return recs, intact, nil
		}
	}
}

// ReadTimings loads the non-deterministic timing sidecar (missing file →
// no timings). Like ReadDir, dir may be a remote store URL.
func ReadTimings(dir string) (map[string]time.Duration, error) {
	if IsRemote(dir) {
		return readTimingsRemote(dir)
	}
	f, err := os.Open(filepath.Join(dir, timingFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return ParseTimings(f)
}

// ParseTimings parses a timing.jsonl stream (see ReadTimings); torn lines
// are skipped, as the sidecar is advisory.
func ParseTimings(src io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var t Timing
		if err := json.Unmarshal(line, &t); err != nil {
			continue // sidecar is advisory; skip torn lines
		}
		out[t.Key] = time.Duration(t.ElapsedNS)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return out, nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) != "" {
		// A set-up process a test's coldSetup started from this binary.
		smokeScale = true
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},
		{90, 90, true}, // exactly 10 samples beyond
		{91, 91, false},
		{100, 100, false},
		{0.5, 1, true},
	} {
		got, ok := percentile(xs, tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..100, %g) = %g, %t; want %g, %t", tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if v, ok := percentile([]float64{7}, 90); v != 7 || ok {
		t.Errorf("single sample p90 = %g, %t; want 7, false", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) with the default exclusive method.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestAttributeFoldsUtilityPackagesIntoCaller(t *testing.T) {
	for _, tc := range []struct {
		frames []string // leaf first
		self   string
		incl   []string
	}{
		{
			frames: []string{"mobisense/internal/geom.Vec.Dist", "mobisense/internal/spatial.(*Index).Query", "mobisense/internal/cpvf.(*Scheme).step", "mobisense.Run"},
			self:   "spatial", incl: []string{"spatial", "cpvf", "mobisense"},
		},
		{
			frames: []string{"runtime.mallocgc", "mobisense/internal/stats.Summarize", "mobisense/internal/metrics.(*Histogram).Observe", "mobisense/internal/coverage.(*Estimator).Fraction", "mobisense.(*tracer).attach.func1"},
			self:   "coverage", incl: []string{"coverage", "mobisense"},
		},
		{
			frames: []string{"runtime.gcBgMarkWorker"},
			self:   "runtime", incl: []string{"runtime"},
		},
		{
			frames: []string{"main.(*serveClient).loop", "net/http.(*Client).Do"},
			self:   "runtime", incl: []string{"runtime"},
		},
		{
			frames: []string{"slices.SortFunc[go.shape.[]mobisense/internal/geom.Vec]", "mobisense/internal/field.(*Field).FirstHit", "mobisense/internal/server.(*Manager).worker"},
			self:   "field", incl: []string{"field", "server"},
		},
		{
			frames: []string{"mobisense/internal/floor.grow[...]", "mobisense/internal/sim.(*Engine).Run"},
			self:   "floor", incl: []string{"floor", "sim"},
		},
	} {
		self, incl := attribute(tc.frames)
		if self != tc.self || strings.Join(incl, ",") != strings.Join(tc.incl, ",") {
			t.Errorf("attribute(%v) = %s, %v; want %s, %v", tc.frames, self, incl, tc.self, tc.incl)
		}
	}
}

func TestProfileAttributionSumsToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = x*6364136223846793005 + 1442695040888963407
	}
	pprof.StopCPUProfile()
	sink = x
	cpu, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu.total <= 0 {
		t.Fatal("profile recorded no CPU")
	}
	var self float64
	for _, l := range layers {
		self += cpu.self[l]
	}
	if diff := self - cpu.total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("layer self times sum to %g, profile total %g", self, cpu.total)
	}
	if cpu.self["runtime"] != cpu.total {
		t.Errorf("a loop outside the module attributed %v, want all of %g to runtime", cpu.self, cpu.total)
	}
}

var sink uint64

func TestAwaitTerminalParsesJobStream(t *testing.T) {
	stream := "event: state\ndata: {\"id\":\"j1\",\"state\":\"queued\"}\n\n" +
		"event: state\ndata: {\"id\":\"j1\",\"state\":\"running\"}\n\n" +
		"event: progress\ndata: {\"done\":1,\"total\":2}\n\n" +
		"event: state\ndata: {\"id\":\"j1\",\"state\":\"done\",\"result\":{\"runs\":2}}\n\n" +
		"event: state\ndata: {\"id\":\"j1\",\"state\":\"after the end\"}\n\n"
	var seen []string
	v, n, err := awaitTerminal(strings.NewReader(stream), func(typ string, v jobView) {
		seen = append(seen, typ+":"+v.State)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" || n != 4 || !jsonEqual(v.Result, json.RawMessage(`{"runs": 2}`)) {
		t.Errorf("terminal view %+v after %d events", v, n)
	}
	if got := strings.Join(seen, " "); got != "state:queued state:running progress: state:done" {
		t.Errorf("events seen: %s", got)
	}
	for _, bad := range []string{
		"event: state\ndata: {\"state\":\"running\"}\n\n", // stream ends early
		"event: state\ndata: {not json}\n\n",
	} {
		if _, _, err := awaitTerminal(strings.NewReader(bad), func(string, jobView) {}); err == nil {
			t.Errorf("awaitTerminal(%q) accepted a stream with no terminal state", bad)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, got, w.name, w.why)
		}
	}
	for _, tc := range []struct {
		name       string
		json, code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", tc.name, len(tc.json), len(tc.code))
			continue
		}
		for i := range tc.code {
			if tc.json[i] != tc.code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", tc.name, i, tc.json[i], tc.code[i])
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload at smoke-test scale, unprofiled
// and profiled, and checks that what it prints — the "name value unit"
// lines and the final JSON line — names exactly BENCHMARK.json's metrics
// with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	smokeScale = true
	defer func() { smokeScale = false }()
	for _, w := range workloads {
		for trace, want := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seconds", "0.05", "-trace", []string{"0", "1"}[trace], "-workdir", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace=%d: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			var printed []metricDef
			var last string
			sc := bufio.NewScanner(&stdout)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) == 3 && !strings.HasPrefix(last, "#") {
					printed = append(printed, metricDef{Name: f[0], Unit: f[2]})
				}
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s trace=%d: last line %q: %v", w.name, trace, last, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: result %+v", w.name, trace, res)
			}
			if len(printed) != len(want) || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: printed %d metrics and %d in JSON, BENCHMARK.json lists %d",
					w.name, trace, len(printed), len(res.Metrics), len(want))
				continue
			}
			for i, d := range want {
				if printed[i].Name != d.Name || printed[i].Unit != d.Unit || res.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %d printed as %+v (JSON unit %q), want %s %s",
						w.name, trace, i, printed[i], res.Metrics[d.Name].Unit, d.Name, d.Unit)
				}
			}
			if trace == 0 {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %g, want a positive value", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func TestRefusesKillSwitchedRuns(t *testing.T) {
	for _, k := range []string{"MOBISENSE_NO_ACCEL", "MOBISENSE_NO_INCR"} {
		t.Run(k, func(t *testing.T) {
			t.Setenv(k, "1")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-workload", "free-n480"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
				t.Errorf("exit %d with output %q; want a refusal", code, stdout.String())
			}
		})
	}
}

// TestUpdateGoldenRewritesOnlyItsWorkload records two workloads' digests
// one after the other, as -workload all does in separate processes, into a
// golden file whose entries are all stale. Each run must rewrite its own
// entry, with the digest the repository records, and leave the others.
func TestUpdateGoldenRewritesOnlyItsWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads at full scale")
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	stale := map[string]string{}
	for _, w := range workloads {
		stale[w.name] = "stale"
	}
	if err := writeGolden(path, stale); err != nil {
		t.Fatal(err)
	}
	updated := []string{"free-n480", "serve-mixed"}
	for _, name := range updated {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", name, "-update-golden", "-golden", path, "-seconds", "0.05", "-workdir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, stderr.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	recorded, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want := "stale"
		if slices.Contains(updated, w.name) {
			want = recorded[w.name]
		}
		if got[w.name] != want {
			t.Errorf("%s: golden file has %q, want %q", w.name, got[w.name], want)
		}
	}
}

package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mobisense"
	"mobisense/internal/baseline"
	"mobisense/internal/field"
	"mobisense/internal/stats"
)

// The tests use the quick sweeps; deploy -figure runs the full ones.

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the quick figures")

var quick = struct {
	sync.Mutex
	rows map[string][]Row
}{rows: map[string][]Row{}}

// quickRows runs the named figure's quick sweep once per test binary; the
// shape tests, the exactness test and the ledger share its rows.
func quickRows(t *testing.T, name string) []Row {
	t.Helper()
	quick.Lock()
	defer quick.Unlock()
	if rows, ok := quick.rows[name]; ok {
		return rows
	}
	f, ok := Lookup(name)
	if !ok {
		t.Fatalf("no figure %q", name)
	}
	sr, err := f.Quick.Run(context.Background(), mobisense.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.Rows(sr.Runs)
	if err != nil {
		t.Fatal(err)
	}
	quick.rows[name] = rows
	return rows
}

func av(name string, v float64) mobisense.AxisValue { return mobisense.AxisValue{Name: name, Value: v} }

// at returns the row with the given key and stat.
func at(t *testing.T, rows []Row, scheme mobisense.Scheme, scenario string, n int, stat string, axes ...mobisense.AxisValue) Row {
	t.Helper()
	for _, r := range rows {
		if r.Scheme == scheme && r.Scenario == scenario && r.N == n && r.Stat == stat && reflect.DeepEqual(r.Axes, axes) {
			return r
		}
	}
	t.Fatalf("no row %s %s N=%d %s %v", scheme, scenario, n, stat, axes)
	return Row{}
}

// axis returns the value of a row's named numeric axis (0 when absent).
func axis(r Row, name string) float64 {
	for _, a := range r.Axes {
		if a.Name == name {
			return a.Value
		}
	}
	return 0
}

func TestFig3Shape(t *testing.T) {
	rows := quickRows(t, "fig3")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's qualitative claim: panel (b) (small rc) is far worse
	// than (a).
	a := at(t, rows, mobisense.SchemeCPVF, "free", 240, "", av("rc", 60))
	b := at(t, rows, mobisense.SchemeCPVF, "free", 240, "", av("rc", 30))
	if b.Coverage >= a.Coverage {
		t.Errorf("rc=30 coverage %.3f should be below rc=60 coverage %.3f", b.Coverage, a.Coverage)
	}
	for _, r := range rows {
		if r.Connected != 1 {
			t.Errorf("%s %v: CPVF must keep the network connected", r.Scenario, r.Axes)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	fl, cp := quickRows(t, "fig8"), quickRows(t, "fig3")
	if len(fl) != 4 {
		t.Fatalf("rows = %d", len(fl))
	}
	// FLOOR beats CPVF decisively in the small-rc panel (b) and in the
	// obstacle panel (c).
	for _, p := range []struct {
		scenario string
		rc       float64
	}{{"free", 30}, {"two-obstacles", 60}} {
		f := at(t, fl, mobisense.SchemeFLOOR, p.scenario, 240, "", av("rc", p.rc))
		c := at(t, cp, mobisense.SchemeCPVF, p.scenario, 240, "", av("rc", p.rc))
		if f.Coverage <= c.Coverage {
			t.Errorf("%s rc=%g: FLOOR %.3f should beat CPVF %.3f", p.scenario, p.rc, f.Coverage, c.Coverage)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	rows := quickRows(t, "fig9")
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, opt := range rows {
		if opt.Scheme != mobisense.SchemeOPT {
			continue
		}
		cp := at(t, rows, mobisense.SchemeCPVF, "free", opt.N, "", opt.Axes...)
		fl := at(t, rows, mobisense.SchemeFLOOR, "free", opt.N, "", opt.Axes...)
		// OPT upper-bounds both schemes (it is the centralized optimum).
		if opt.Coverage+0.05 < fl.Coverage {
			t.Errorf("N=%d %v: OPT %.3f below FLOOR %.3f", opt.N, opt.Axes, opt.Coverage, fl.Coverage)
		}
		// At rc=20, rs=60 FLOOR must beat CPVF clearly (the paper's
		// headline gap).
		if axis(opt, "rc") == 20 && fl.Coverage <= cp.Coverage {
			t.Errorf("N=%d: FLOOR %.3f <= CPVF %.3f at small rc", opt.N, fl.Coverage, cp.Coverage)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows := quickRows(t, "fig10")
	for _, fl := range rows {
		if fl.Scheme != mobisense.SchemeFLOOR {
			continue
		}
		ratio := axis(fl, "rc") / 60
		vor := at(t, rows, mobisense.SchemeVOR, "free", 240, "", fl.Axes...)
		mmx := at(t, rows, mobisense.SchemeMinimax, "free", 240, "", fl.Axes...)
		if fl.Connected != 1 {
			t.Errorf("rc/rs=%g: FLOOR disconnected", ratio)
		}
		if ratio < 1.5 {
			// The paper: neither VOR nor Minimax achieves connectivity for
			// rc/rs <= 2. With the minimum-distance explosion producing a
			// uniform layout, rc = 2·rs = 120 m is already supercritical
			// for 240 sensors, so the reproduction asserts the clearly
			// sub-critical regime only (deviation noted in EXPERIMENTS.md).
			if vor.Connected == 1 && mmx.Connected == 1 {
				t.Errorf("rc/rs=%g: VD schemes unexpectedly both connected", ratio)
			}
		}
		if ratio < 1 && vor.IncorrectCells == 0 {
			t.Errorf("rc/rs=%g: expected incorrect cells at tiny rc", ratio)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	rows := quickRows(t, "fig11")
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	dist := func(s mobisense.Scheme, stat string) float64 { return at(t, rows, s, "free", 120, stat).Distance }
	floor := dist(mobisense.SchemeFLOOR, "")
	// The Hungarian bound to FLOOR's own layout can never exceed FLOOR's
	// actual distance.
	if lb := dist(mobisense.SchemeFLOOR, "hungarian"); lb > floor+1e-9 {
		t.Errorf("lower bound %.1f exceeds FLOOR %.1f", lb, floor)
	}
	// VOR/Minimax carry the explosion cost: they must be the two largest
	// (the paper's main Fig 11 finding).
	for _, vd := range []mobisense.Scheme{mobisense.SchemeVOR, mobisense.SchemeMinimax} {
		if d := dist(vd, ""); d <= floor {
			t.Errorf("%s %.1f should exceed FLOOR %.1f", vd, d, floor)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rows := quickRows(t, "fig12")
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	none := func(delta float64) Row {
		return at(t, rows, mobisense.SchemeCPVF, "free", 120, "",
			mobisense.AxisValue{Name: "cpvf.osc", Str: "none"}, av("cpvf.delta", delta))
	}
	base := none(2)
	// δ acts only with avoidance on: every none row is the same run.
	if n8 := none(8); n8.Distance != base.Distance || n8.Coverage != base.Coverage {
		t.Errorf("none rows differ: δ=2 %+v, δ=8 %+v", base, n8)
	}
	// Every avoidance configuration should move no more than the baseline
	// (within 10% noise).
	for _, r := range rows {
		if r.Distance > base.Distance*1.1 {
			t.Errorf("%v: distance %.1f exceeds baseline %.1f", r.Axes, r.Distance, base.Distance)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	rows := quickRows(t, "fig13")
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Both schemes must produce sane coverage on random-obstacle fields.
	// (The paper reports FLOOR's mean more than 20 points above CPVF's;
	// in this reproduction CPVF is less obstacle-impaired on benign random
	// layouts, so the gap claim is checked — and its deviation documented —
	// in EXPERIMENTS.md rather than asserted here.)
	if c := at(t, rows, mobisense.SchemeFLOOR, "random-obstacles", 240, "").Coverage; c < 0.35 {
		t.Errorf("FLOOR mean coverage %.3f suspiciously low", c)
	}
	if c := at(t, rows, mobisense.SchemeCPVF, "random-obstacles", 240, "").Coverage; c < 0.25 {
		t.Errorf("CPVF mean coverage %.3f suspiciously low", c)
	}
	for _, r := range rows {
		for _, v := range []float64{r.Coverage, r.Distance, r.Messages, r.Connected, r.IncorrectCells} {
			if v < 0 {
				t.Errorf("%s %s: negative value in %+v", r.Scheme, r.Stat, r)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows := quickRows(t, "table1")
	// Messages grow with the TTL within one environment and N.
	lo := at(t, rows, mobisense.SchemeFLOOR, "free", 120, "", av("floor.ttl_frac", 0.1))
	hi := at(t, rows, mobisense.SchemeFLOOR, "free", 120, "", av("floor.ttl_frac", 0.4))
	if hi.Messages <= lo.Messages {
		t.Errorf("TTL=0.4N total %.0f should exceed TTL=0.1N %.0f", hi.Messages, lo.Messages)
	}
}

// TestAxisSweepsMatchHandBuiltLists pins every figure's single sweep to
// the hand-built config lists the figures were first computed from: one
// fixed seed, explicit per-config fields, run through RunBatch. Each value
// a row carries — coverage, distance, connectivity, incorrect cells,
// messages, the Hungarian bounds, Fig 13's means and quantiles and the
// paper values — must match bit for bit.
func TestAxisSweepsMatchHandBuiltLists(t *testing.T) {
	batch := func(t *testing.T, cfgs []mobisense.Config) []mobisense.Result {
		t.Helper()
		out, err := mobisense.RunBatch(context.Background(), cfgs, mobisense.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]mobisense.Result, len(out))
		for i, br := range out {
			if br.Err != nil {
				t.Fatalf("run %d: %v", i, br.Err)
			}
			results[i] = br.Result
		}
		return results
	}
	scenario := func(t *testing.T, name string) mobisense.Field {
		f, err := mobisense.BuildScenario(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	paperConfig := func(s mobisense.Scheme, f mobisense.Field) mobisense.Config {
		cfg := mobisense.DefaultConfig(s)
		cfg.Field = f
		return cfg
	}
	conn := func(r mobisense.Result) float64 {
		if r.Connected {
			return 1
		}
		return 0
	}
	// same compares a point row with the run it stands for.
	same := func(t *testing.T, row Row, res mobisense.Result) {
		t.Helper()
		if row.Runs != 1 || row.Coverage != res.Coverage || row.Distance != res.AvgMoveDistance ||
			row.Connected != conn(res) || row.IncorrectCells != float64(res.IncorrectVoronoiCells) ||
			row.Messages != float64(res.Messages) {
			t.Errorf("%s %s N=%d %v: row %+v differs from hand-built run", row.Scheme, row.Scenario, row.N, row.Axes, row)
		}
	}

	for _, fig := range []struct {
		name   string
		scheme mobisense.Scheme
		paper  []float64
	}{
		{"fig3", mobisense.SchemeCPVF, []float64{0.745, 0.264, 0.371, 0}},
		{"fig8", mobisense.SchemeFLOOR, []float64{0.788, 0.462, 0.725, 0}},
	} {
		t.Run(fig.name, func(t *testing.T) {
			var cfgs []mobisense.Config
			for _, scen := range []string{"free", "two-obstacles"} {
				f := scenario(t, scen)
				for _, rc := range []float64{60, 30} {
					cfg := paperConfig(fig.scheme, f)
					cfg.Rc = rc
					cfgs = append(cfgs, cfg)
				}
			}
			results := batch(t, cfgs)
			rows := quickRows(t, fig.name)
			for i, row := range rows {
				same(t, row, results[i])
				if row.Paper != fig.paper[i] {
					t.Errorf("row %d: paper %v, want %v", i, row.Paper, fig.paper[i])
				}
			}
		})
	}

	t.Run("fig9", func(t *testing.T) {
		free := scenario(t, "free")
		var cfgs []mobisense.Config
		for _, s := range []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR, mobisense.SchemeOPT} {
			for _, n := range []int{120, 240} {
				for _, rc := range []float64{20, 60} {
					cfg := paperConfig(s, free)
					cfg.N, cfg.Rc, cfg.Rs = n, rc, 60
					cfgs = append(cfgs, cfg)
				}
			}
		}
		results := batch(t, cfgs)
		for i, row := range quickRows(t, "fig9") {
			same(t, row, results[i])
		}
	})

	t.Run("fig10", func(t *testing.T) {
		// Stabilization as the figures first had it: FLOOR runs only.
		free := scenario(t, "free")
		ratios := []float64{0.8, 2, 4}
		var cfgs []mobisense.Config
		for _, s := range []mobisense.Scheme{mobisense.SchemeFLOOR, mobisense.SchemeVOR, mobisense.SchemeMinimax} {
			for _, ratio := range ratios {
				cfg := paperConfig(s, free)
				cfg.Rc, cfg.Rs = ratio*60, 60
				if s == mobisense.SchemeFLOOR {
					cfg.Stabilize = &mobisense.StabilizeOptions{Cap: 2250}
				}
				cfgs = append(cfgs, cfg)
			}
		}
		results := batch(t, cfgs)
		for i, row := range quickRows(t, "fig10") {
			same(t, row, results[i])
		}
		// The paper-scale rc axis is each rc/rs ratio times 60, exactly.
		for i, ratio := range []float64{0.8, 1, 1.5, 2, 2.5, 3, 3.5, 4} {
			if rc := fig10.Full.Axes[0].Values[i]; rc != ratio*60 {
				t.Errorf("paper-scale rc %v, want %v·60", rc, ratio)
			}
		}
	})

	t.Run("fig11", func(t *testing.T) {
		free := scenario(t, "free")
		var cfgs []mobisense.Config
		for _, s := range []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR, mobisense.SchemeVOR, mobisense.SchemeMinimax} {
			cfg := paperConfig(s, free)
			cfg.N = 120
			cfgs = append(cfgs, cfg)
		}
		results := batch(t, cfgs)
		fl := results[1]
		starts := toVecs(fl.InitialPositions)
		pattern := baseline.StripPattern(field.StandardBounds(), 120, 60, 40)
		optDists, err := baseline.MinMatchingDistance(starts, pattern)
		if err != nil {
			t.Fatal(err)
		}
		floorLB, err := baseline.MinMatchingDistance(starts, toVecs(fl.Positions))
		if err != nil {
			t.Fatal(err)
		}
		rows := quickRows(t, "fig11")
		want := []struct {
			scheme mobisense.Scheme
			stat   string
			dist   float64
		}{
			{mobisense.SchemeCPVF, "", results[0].AvgMoveDistance},
			{mobisense.SchemeFLOOR, "", fl.AvgMoveDistance},
			{mobisense.SchemeFLOOR, "hungarian", stats.Mean(floorLB)},
			{mobisense.SchemeVOR, "", results[2].AvgMoveDistance},
			{mobisense.SchemeMinimax, "", results[3].AvgMoveDistance},
			{mobisense.SchemeOPT, "", stats.Mean(optDists)},
		}
		for i, w := range want {
			if r := rows[i]; r.Scheme != w.scheme || r.Stat != w.stat || r.Distance != w.dist {
				t.Errorf("row %d: %s %s distance %v, want %s %s %v", i, r.Scheme, r.Stat, r.Distance, w.scheme, w.stat, w.dist)
			}
		}
	})

	t.Run("fig12", func(t *testing.T) {
		free := scenario(t, "free")
		mkCfg := func(osc string, delta float64) mobisense.Config {
			cfg := paperConfig(mobisense.SchemeCPVF, free)
			cfg.N = 120
			if osc != "" {
				cfg.CPVF = &mobisense.CPVFOptions{Oscillation: osc, Delta: delta}
			}
			return cfg
		}
		// The no-avoidance reference leaves the CPVF options unset.
		cfgs := []mobisense.Config{mkCfg("", 0), mkCfg("", 0)}
		for _, mode := range []string{"one-step", "two-step"} {
			for _, delta := range []float64{2, 8} {
				cfgs = append(cfgs, mkCfg(mode, delta))
			}
		}
		results := batch(t, cfgs)
		for i, row := range quickRows(t, "fig12") {
			same(t, row, results[i])
		}
	})

	t.Run("fig13", func(t *testing.T) {
		// Fig 13 was a repeated sweep from the start: run its expansion
		// through RunBatch and summarize each scheme's runs by hand.
		specs, err := fig13.Quick.Expand()
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]mobisense.Config, len(specs))
		for i, sp := range specs {
			cfgs[i] = sp.Config
		}
		results := batch(t, cfgs)
		cov := map[mobisense.Scheme][]float64{}
		dist := map[mobisense.Scheme][]float64{}
		for i, sp := range specs {
			cov[sp.Scheme] = append(cov[sp.Scheme], results[i].Coverage)
			dist[sp.Scheme] = append(dist[sp.Scheme], results[i].AvgMoveDistance)
		}
		rows := quickRows(t, "fig13")
		for _, s := range []mobisense.Scheme{mobisense.SchemeCPVF, mobisense.SchemeFLOOR} {
			mean := at(t, rows, s, "random-obstacles", 240, "")
			if mean.Runs != 6 || mean.Coverage != stats.Mean(cov[s]) || mean.Distance != stats.Mean(dist[s]) {
				t.Errorf("%s mean row %+v differs from the hand-built means", s, mean)
			}
			for _, q := range []struct {
				stat string
				q    float64
			}{{"p10", 0.1}, {"p25", 0.25}, {"p50", 0.5}, {"p75", 0.75}, {"p90", 0.9}} {
				r := at(t, rows, s, "random-obstacles", 240, q.stat)
				if r.Coverage != stats.Quantile(cov[s], q.q) || r.Distance != stats.Quantile(dist[s], q.q) {
					t.Errorf("%s %s row %+v differs from the hand-built quantiles", s, q.stat, r)
				}
			}
		}
	})

	t.Run("table1", func(t *testing.T) {
		var cfgs []mobisense.Config
		for _, scen := range []string{"free", "two-obstacles"} {
			f := scenario(t, scen)
			for _, frac := range []float64{0.1, 0.4} {
				cfg := paperConfig(mobisense.SchemeFLOOR, f)
				cfg.N = 120
				cfg.Floor = &mobisense.FloorOptions{TTL: int(frac * 120)}
				cfgs = append(cfgs, cfg)
			}
		}
		results := batch(t, cfgs)
		paperK := []float64{225, 470, 198, 460}
		for i, row := range quickRows(t, "table1") {
			same(t, row, results[i])
			if row.Paper/1000 != paperK[i] {
				t.Errorf("row %d: paper %v, want %vk", i, row.Paper, paperK[i])
			}
		}
	})
}

// TestStoreReplayReproducesRows runs a figure twice against one store:
// the second pass resumes, executes no run and reproduces the rows
// exactly. fig11's rows need the stored layouts.
func TestStoreReplayReproducesRows(t *testing.T) {
	for _, name := range []string{"table1", "fig11"} {
		t.Run(name, func(t *testing.T) {
			f, _ := Lookup(name)
			dir := t.TempDir()
			pass := func() ([]Row, int) {
				executed := 0
				sr, err := f.Quick.Run(context.Background(), mobisense.BatchOptions{
					Store:      &mobisense.Store{Dir: dir, Resume: true, Layouts: f.Layouts},
					OnProgress: func(int, int) { executed++ },
				})
				if err != nil {
					t.Fatal(err)
				}
				rows, err := f.Rows(sr.Runs)
				if err != nil {
					t.Fatal(err)
				}
				return rows, executed
			}
			first, _ := pass()
			if _, err := os.Stat(filepath.Join(dir, "records.jsonl")); err != nil {
				t.Fatalf("store not written: %v", err)
			}
			replayed, executed := pass()
			if executed != 0 {
				t.Errorf("resumed pass executed %d runs", executed)
			}
			if !reflect.DeepEqual(first, replayed) {
				t.Errorf("replayed rows differ:\nfirst:    %+v\nreplayed: %+v", first, replayed)
			}
		})
	}
}

const ledgerHead = `# EXPERIMENTS: the paper's evaluation, reproduced

Each section is one figure of the paper's evaluation, defined once as a
sweep in ` + "`internal/experiments`" + `. The rows here come from its quick variant
at seed 1; ` + "`deploy -figure <name>`" + ` runs the paper-scale sweep and prints
the same table. ` + "`go test ./internal/experiments`" + ` regenerates this file
and fails when it differs; ` + "`-run TestExperimentsLedger -update`" + `
rewrites it.

One row per sweep point (scheme, scenario, N, axes). Coverage, distance
(average moving distance per sensor), messages, connected (the fraction of
runs whose final layout is unit-disk connected to the base) and incorrect
cells are means over the point's runs; a row with a stat holds a quantile
or a bound instead. The paper column holds the paper's value where it
reports one; the notes say which metric it is.
`

// TestExperimentsLedger regenerates EXPERIMENTS.md from the quick figures
// and fails when the checked-in copy differs.
func TestExperimentsLedger(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(ledgerHead)
	for _, f := range Figures {
		sb.WriteString("\n" + f.Markdown(quickRows(t, f.Name)))
	}
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	haveLines, wantLines := strings.Split(string(have), "\n"), strings.Split(sb.String(), "\n")
	for i := range max(len(haveLines), len(wantLines)) {
		h, w := "", ""
		if i < len(haveLines) {
			h = haveLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if h != w {
			t.Fatalf("EXPERIMENTS.md is stale from line %d; rerun with -run TestExperimentsLedger -update and review the diff.\nchecked in: %s\nregenerated: %s", i+1, h, w)
		}
	}
}

// Package experiments holds the paper's evaluation (§4.3, §5.6, §6) as
// data: each of Figures 3 and 8–13 and Table 1 is one mobisense.Sweep, at
// paper scale and as a quick variant, with the paper's reference values
// and notes on where the reproduction deviates. deploy -figure runs the
// sweeps with the caller's store, shard and worker options; Rows projects
// a sweep's runs onto one row per sweep point, and Markdown renders the
// rows as deploy prints them and as EXPERIMENTS.md records them.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"mobisense"
	"mobisense/internal/stats"
)

// Figure is one artifact of the paper's evaluation.
type Figure struct {
	// Name is the registry key (fig3 … fig13, table1).
	Name  string
	Title string
	// Full is the paper-scale sweep; Quick shrinks it for tests,
	// benchmarks and EXPERIMENTS.md. Both leave Seed to the caller.
	Full, Quick mobisense.Sweep
	// Paper holds the paper's values of the metric the notes name, keyed
	// by sweep point as Row.key names it.
	Paper map[string]float64
	// Layouts marks figures whose rows need every run's layouts, so
	// their stores always keep them.
	Layouts bool
	// Extra, if set, derives further rows from one sweep point's row and
	// its runs; they follow the point's row.
	Extra func(point Row, runs []mobisense.Result) ([]Row, error)
	Notes []string
}

// Row is one sweep point of a figure: the point's key and the mean of
// each metric over its runs. Rows derived by Figure.Extra name what they
// hold in Stat: a quantile ("p10") or a lower bound ("hungarian").
type Row struct {
	Scheme   mobisense.Scheme
	Scenario string
	N        int
	Axes     []mobisense.AxisValue
	Stat     string
	Runs     int
	// The metric columns; Connected is the fraction of runs whose final
	// layout is unit-disk connected to the base.
	Coverage, Distance, Messages, Connected, IncorrectCells float64
	// Paper is the paper's value at this point (0 when it has none).
	Paper float64
}

// key names the row's sweep point, e.g. "cpvf free N=240 rc=60".
func (r Row) key() string {
	return strings.TrimSpace(fmt.Sprintf("%s %s N=%d %s", r.Scheme, r.Scenario, r.N, axesString(r.Axes)))
}

// Figures is the registry, in the paper's order.
var Figures = []Figure{fig3, fig8, fig9, fig10, fig11, fig12, fig13, table1}

// Lookup finds a figure by name.
func Lookup(name string) (Figure, bool) {
	for _, f := range Figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// Names lists the registered figure names in the paper's order.
func Names() []string {
	names := make([]string, len(Figures))
	for i, f := range Figures {
		names[i] = f.Name
	}
	return names
}

// Rows projects a finished run of the figure's sweep onto one row per
// sweep point, in expansion order, each followed by its Extra rows.
// Every run must have succeeded.
func (f Figure) Rows(runs []mobisense.BatchResult) ([]Row, error) {
	var points []Row
	var groups [][]mobisense.Result
	at := map[string]int{}
	for _, br := range runs {
		if br.Err != nil {
			return nil, fmt.Errorf("experiments: %s run %d: %w", f.Name, br.Spec.Index, br.Err)
		}
		sp := br.Spec
		r := Row{Scheme: sp.Scheme, Scenario: sp.Scenario, N: sp.N, Axes: sp.Axes}
		k := r.key()
		i, ok := at[k]
		if !ok {
			i = len(points)
			at[k] = i
			points = append(points, r)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], br.Result)
	}
	var rows []Row
	for i, r := range points {
		r.Runs = len(groups[i])
		r.fill(groups[i], stats.Mean)
		r.Paper = f.Paper[r.key()]
		rows = append(rows, r)
		if f.Extra != nil {
			extra, err := f.Extra(r, groups[i])
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", f.Name, err)
			}
			rows = append(rows, extra...)
		}
	}
	return rows, nil
}

// fill sets every metric column to stat over the runs' values.
func (r *Row) fill(runs []mobisense.Result, stat func([]float64) float64) {
	var cov, dist, msgs, conn, inc []float64
	for _, res := range runs {
		c := 0.0
		if res.Connected {
			c = 1
		}
		cov = append(cov, res.Coverage)
		dist = append(dist, res.AvgMoveDistance)
		msgs = append(msgs, float64(res.Messages))
		conn = append(conn, c)
		inc = append(inc, float64(res.IncorrectVoronoiCells))
	}
	r.Coverage, r.Distance, r.Messages = stat(cov), stat(dist), stat(msgs)
	r.Connected, r.IncorrectCells = stat(conn), stat(inc)
}

// axesString renders a row's axis assignments as "name=value;…".
func axesString(axes []mobisense.AxisValue) string {
	parts := make([]string, len(axes))
	for i, a := range axes {
		parts[i] = a.Name + "=" + a.ValueString()
	}
	return strings.Join(parts, ";")
}

// Markdown renders the figure's rows as one EXPERIMENTS.md section: the
// title, a table and the notes.
func (f Figure) Markdown(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s: %s\n\n", f.Name, f.Title)
	sb.WriteString("| scheme | scenario | n | axes | stat | runs | coverage | distance (m) | messages | connected | incorrect cells | paper |\n")
	sb.WriteString("|---|---|--:|---|---|--:|--:|--:|--:|--:|--:|--:|\n")
	for _, r := range rows {
		paper := ""
		if r.Paper != 0 {
			paper = strconv.FormatFloat(r.Paper, 'f', -1, 64)
		}
		fmt.Fprintf(&sb, "| %s | %s | %d | %s | %s | %d | %.4f | %.2f | %.0f | %.3g | %.4g | %s |\n",
			r.Scheme, r.Scenario, r.N, axesString(r.Axes), r.Stat, r.Runs,
			r.Coverage, r.Distance, r.Messages, r.Connected, r.IncorrectCells, paper)
	}
	if len(f.Notes) > 0 {
		sb.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "- %s\n", n)
	}
	return sb.String()
}

// CSVHeader names the columns AppendCSV writes.
const CSVHeader = "figure,scheme,scenario,n,axes,stat,runs,coverage,distance,messages,connected,incorrect_cells,paper\n"

// AppendCSV appends the figure's rows as CSV lines, every value lossless.
func AppendCSV(dst []byte, figure string, rows []Row) []byte {
	for _, r := range rows {
		dst = fmt.Appendf(dst, "%s,%s,%s,%d,%s,%s,%d", figure, r.Scheme, r.Scenario, r.N, axesString(r.Axes), r.Stat, r.Runs)
		for _, v := range []float64{r.Coverage, r.Distance, r.Messages, r.Connected, r.IncorrectCells, r.Paper} {
			dst = append(dst, ',')
			dst = strconv.AppendFloat(dst, v, 'f', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

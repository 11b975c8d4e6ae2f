// Package render produces ASCII maps and CSV dumps of deployment layouts,
// for the example programs and the deploy CLI.
package render

import (
	"fmt"
	"strconv"
	"strings"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// ASCIIMap renders the field and sensor layout as a text map with the
// given number of character columns. Rows are scaled to keep cells roughly
// square in terminal aspect (a character is about twice as tall as wide).
// Legend: '.' free space, '#' obstacle, 'B' the base station, digits the
// number of sensors in the cell ('*' for 10+).
func ASCIIMap(f *field.Field, positions []geom.Vec, cols int) string {
	if cols < 4 {
		cols = 4
	}
	b := f.Bounds()
	cellW := b.W() / float64(cols)
	cellH := 2 * cellW
	rows := int(b.H()/cellH) + 1

	counts := make([]int, rows*cols)
	for _, p := range positions {
		cx := clamp(int((p.X-b.Min.X)/cellW), 0, cols-1)
		cy := clamp(int((p.Y-b.Min.Y)/cellH), 0, rows-1)
		counts[cy*cols+cx]++
	}
	baseCX := clamp(int((f.Reference().X-b.Min.X)/cellW), 0, cols-1)
	baseCY := clamp(int((f.Reference().Y-b.Min.Y)/cellH), 0, rows-1)

	var sb strings.Builder
	sb.Grow((cols + 1) * rows)
	for cy := rows - 1; cy >= 0; cy-- {
		for cx := 0; cx < cols; cx++ {
			center := geom.V(
				b.Min.X+(float64(cx)+0.5)*cellW,
				b.Min.Y+(float64(cy)+0.5)*cellH,
			)
			switch n := counts[cy*cols+cx]; {
			case cx == baseCX && cy == baseCY:
				sb.WriteByte('B')
			case n >= 10:
				sb.WriteByte('*')
			case n > 0:
				sb.WriteString(strconv.Itoa(n))
			case b.Contains(center) && !f.Free(center):
				sb.WriteByte('#')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PositionsCSV renders sensor positions as "id,x,y" CSV text.
func PositionsCSV(positions []geom.Vec) string {
	var sb strings.Builder
	sb.WriteString("id,x,y\n")
	for i, p := range positions {
		fmt.Fprintf(&sb, "%d,%.3f,%.3f\n", i, p.X, p.Y)
	}
	return sb.String()
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

package render

import (
	"strings"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

func TestASCIIMapBasics(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100),
		[]geom.Polygon{geom.R(40, 40, 60, 60).Polygon()})
	positions := []geom.Vec{geom.V(10, 90), geom.V(10, 90), geom.V(90, 10)}
	m := ASCIIMap(f, positions, 20)

	if !strings.Contains(m, "B") {
		t.Error("missing base station marker")
	}
	if !strings.Contains(m, "#") {
		t.Error("missing obstacle marker")
	}
	if !strings.Contains(m, "2") {
		t.Error("missing doubled-up sensor cell")
	}
	lines := strings.Split(strings.TrimSpace(m), "\n")
	for i, l := range lines {
		if len(l) != 20 {
			t.Errorf("line %d width = %d, want 20", i, len(l))
		}
	}
}

func TestASCIIMapManySensorsStar(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	var positions []geom.Vec
	for i := 0; i < 12; i++ {
		positions = append(positions, geom.V(50, 50))
	}
	if m := ASCIIMap(f, positions, 10); !strings.Contains(m, "*") {
		t.Error("10+ sensors should render '*'")
	}
}

func TestASCIIMapMinWidth(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	m := ASCIIMap(f, nil, 1) // clamped to 4
	lines := strings.Split(strings.TrimSpace(m), "\n")
	if len(lines[0]) != 4 {
		t.Errorf("clamped width = %d, want 4", len(lines[0]))
	}
}

func TestPositionsCSV(t *testing.T) {
	csv := PositionsCSV([]geom.Vec{geom.V(1.5, 2.25), geom.V(3, 4)})
	want := "id,x,y\n0,1.500,2.250\n1,3.000,4.000\n"
	if csv != want {
		t.Errorf("csv = %q, want %q", csv, want)
	}
	if PositionsCSV(nil) != "id,x,y\n" {
		t.Error("empty csv should still have a header")
	}
}

// TestPositionsCSVRoundTrip: PositionsCSV keeps a layout to the
// millimetre, negative coordinates included, in one row per sensor with
// dense ids in layout order.
func TestPositionsCSVRoundTrip(t *testing.T) {
	layout := []geom.Vec{
		geom.V(0, 0),
		geom.V(123.456, 789.012),
		geom.V(-5.5, 1000),
		geom.V(0.001, 0.0005), // rounds to 0.001,0.001 at write precision
	}
	want := "id,x,y\n0,0.000,0.000\n1,123.456,789.012\n2,-5.500,1000.000\n3,0.001,0.001\n"
	if got := PositionsCSV(layout); got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

package field

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"mobisense/internal/geom"
)

// FuzzParseSpec: every input parses to a spec that normalizes or fails
// cleanly. An accepted spec's normal form is a fixed point and survives
// a JSON round trip with its fingerprint, and it builds without a panic:
// Build returns a field whose bounds and fingerprint are the spec's, or
// an error. A built field's FreeMask equals the per-cell oracle, and a
// fixed spec fails with ErrDisconnected exactly when the per-cell flood
// finds its free space split. Normalize bounds a spec's size, so every
// accepted spec is built except those whose free-space check would walk
// more than maxFuzzCells cells: valid, but too slow to build once per
// input. The seed corpus is testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	const maxFuzzCells = 1 << 14
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			t.Fatalf("ParseSpec accepted %q, but Normalize fails: %v", data, err)
		}
		if again, err := n.Normalize(); err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("normal form of %q is not a fixed point: %+v, %v", data, again, err)
		}
		fp := s.Fingerprint()
		if n.Fingerprint() != fp {
			t.Fatalf("%q: fingerprint %s, normal form's %s", data, fp, n.Fingerprint())
		}
		enc, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("%q: normal form does not encode: %v", data, err)
		}
		if back, err := ParseSpec(enc); err != nil || back.Fingerprint() != fp {
			t.Fatalf("%q: normal form %s parses back with fingerprint %s (%v), want %s", data, enc, back.Fingerprint(), err, fp)
		}
		b := n.Bounds
		if cells := ((b.MaxX-b.MinX)/connectivityRes + 1) * ((b.MaxY-b.MinY)/connectivityRes + 1); cells > maxFuzzCells {
			return
		}
		fld, err := s.Build(7)
		if !n.Seeded() {
			checkConnectivityVerdict(t, data, n, err)
		}
		if err != nil {
			return
		}
		if got := fld.Bounds(); got.Min.X != b.MinX || got.Min.Y != b.MinY || got.Max.X != b.MaxX || got.Max.Y != b.MaxY {
			t.Fatalf("%q: built field has bounds %v", data, got)
		}
		if got := fld.Spec().Fingerprint(); got != fp {
			t.Fatalf("%q: built field's spec fingerprint %s, want %s", data, got, fp)
		}
		nx, ny := int(fld.bounds.W()/connectivityRes)+1, int(fld.bounds.H()/connectivityRes)+1
		got, want := fld.FreeMask(connectivityRes, nx, ny), perCellFreeMask(fld, connectivityRes, nx, ny)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: FreeMask cell (%d, %d) is %v, per-cell %v", data, i%nx, i/nx, got[i], want[i])
			}
		}
	})
}

// checkConnectivityVerdict: a fixed spec n whose build returned err
// fails with ErrDisconnected exactly when its reference point is free
// and the per-cell flood finds the free space split.
func checkConnectivityVerdict(t *testing.T, data []byte, n Spec, err error) {
	t.Helper()
	obstacles := make([]geom.Polygon, len(n.Obstacles))
	for i, ob := range n.Obstacles {
		obstacles[i] = ob.polygon()
	}
	raw, rawErr := New(n.Bounds.rect(), obstacles, WithReference(geom.V(n.Reference.X, n.Reference.Y)), WithoutValidation())
	if rawErr != nil || !raw.Free(raw.reference) {
		return // rejected before the connectivity check
	}
	nx, ny := int(raw.bounds.W()/connectivityRes)+1, int(raw.bounds.H()/connectivityRes)+1
	if split := !dfsConnected(raw, connectivityRes, nx, ny); errors.Is(err, ErrDisconnected) != split {
		t.Fatalf("%q: Build error %v, but the per-cell flood says split = %v", data, err, split)
	}
}

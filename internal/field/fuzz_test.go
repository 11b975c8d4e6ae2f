package field

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSpec: every input parses to a spec that normalizes or fails
// cleanly. An accepted spec's normal form is a fixed point and survives
// a JSON round trip with its fingerprint, and it builds without a panic:
// Build returns a field whose bounds and fingerprint are the spec's, or
// an error. Normalize bounds a spec's size, so every accepted spec is
// built except those whose free-space check would walk more than
// maxFuzzCells cells: valid, but too slow to build once per input. The
// seed corpus is testdata/fuzz/FuzzParseSpec.
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
		if err != nil {
			return
		}
		if got := fld.Bounds(); got.Min.X != b.MinX || got.Min.Y != b.MinY || got.Max.X != b.MaxX || got.Max.Y != b.MaxY {
			t.Fatalf("%q: built field has bounds %v", data, got)
		}
		if got := fld.Spec().Fingerprint(); got != fp {
			t.Fatalf("%q: built field's spec fingerprint %s, want %s", data, got, fp)
		}
	})
}

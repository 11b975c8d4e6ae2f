package field

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"mobisense/internal/geom"
)

// randomSpec generates a random, usually-valid field spec: random bounds,
// a few random rectangular or triangular obstacles. Some layouts
// partition the field; callers skip those.
func randomSpec(rng *rand.Rand) Spec {
	w := 400 + rng.Float64()*800
	h := 400 + rng.Float64()*800
	s := Spec{Bounds: RectSpec{MaxX: w, MaxY: h}}
	if rng.IntN(2) == 0 {
		s.Reference = &PointSpec{X: rng.Float64() * w / 4, Y: rng.Float64() * h / 4}
	}
	n := rng.IntN(4)
	for i := 0; i < n; i++ {
		x := 100 + rng.Float64()*(w-300)
		y := 100 + rng.Float64()*(h-300)
		ow := 40 + rng.Float64()*150
		oh := 40 + rng.Float64()*150
		if rng.IntN(2) == 0 {
			s.Obstacles = append(s.Obstacles, ObstacleSpec{Rect: []float64{x, y, x + ow, y + oh}})
		} else {
			// A triangle, sometimes in clockwise order to exercise CCW
			// normalization.
			pts := []PointSpec{{X: x, Y: y}, {X: x + ow, Y: y}, {X: x + ow/2, Y: y + oh}}
			if rng.IntN(2) == 0 {
				pts[0], pts[2] = pts[2], pts[0]
			}
			s.Obstacles = append(s.Obstacles, ObstacleSpec{Points: pts})
		}
	}
	return s
}

// TestSpecRoundTripProperty is the spec subsystem's losslessness check:
// over random specs, (1) normalization is idempotent, (2) the JSON
// encode→decode round trip preserves the normalized spec and its
// fingerprint, and (3) building a field and extracting its geometry
// reproduces the normalized spec (and fingerprint) exactly.
func TestSpecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 9))
	built := 0
	for trial := 0; trial < 60; trial++ {
		s := randomSpec(rng)
		n, err := s.Normalize()
		if err != nil {
			t.Fatalf("trial %d: normalize: %v", trial, err)
		}
		n2, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(n, n2) {
			t.Fatalf("trial %d: normalization not idempotent (err=%v)", trial, err)
		}
		if s.Fingerprint() != n.Fingerprint() {
			t.Fatalf("trial %d: fingerprint changed under normalization", trial)
		}

		// JSON round trip.
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(decoded, n) {
			t.Fatalf("trial %d: JSON round trip changed the spec:\nin:  %+v\nout: %+v", trial, n, decoded)
		}
		if decoded.Fingerprint() != n.Fingerprint() {
			t.Fatalf("trial %d: JSON round trip changed the fingerprint", trial)
		}

		// Build → extract. Layouts that partition the free space are
		// legitimately rejected; skip them.
		f, err := s.Build(1)
		if err != nil {
			continue
		}
		built++
		got := f.Spec()
		got.Name = n.Name
		if !reflect.DeepEqual(got, n) {
			t.Fatalf("trial %d: Spec→Field→Spec lost information:\nin:  %+v\nout: %+v", trial, n, got)
		}
		if got.Fingerprint() != n.Fingerprint() {
			t.Fatalf("trial %d: field reconstruction changed the fingerprint", trial)
		}
		// Rebuilding from the extracted spec gives identical geometry.
		f2, err := got.Build(1)
		if err != nil {
			t.Fatalf("trial %d: rebuild from extracted spec: %v", trial, err)
		}
		if !reflect.DeepEqual(f.Obstacles(), f2.Obstacles()) ||
			f.Bounds() != f2.Bounds() || f.Reference() != f2.Reference() {
			t.Fatalf("trial %d: rebuilt field differs", trial)
		}
	}
	if built < 20 {
		t.Fatalf("only %d/60 random specs built; generator too aggressive for a meaningful test", built)
	}
}

// TestSpecGeometricExtraction: a field built directly from geometry
// (no spec) extracts to a spec that rebuilds the identical field.
func TestSpecGeometricExtraction(t *testing.T) {
	f := TwoObstacles()
	s := f.Spec()
	if s.Generator != nil || len(s.Obstacles) != 2 {
		t.Fatalf("extracted spec = %+v", s)
	}
	f2, err := s.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Obstacles(), f2.Obstacles()) || f.Bounds() != f2.Bounds() || f.Reference() != f2.Reference() {
		t.Error("extracted spec rebuilt a different field")
	}
}

// TestGeneratorSpecMatchesLegacyStream: a generator spec with the
// pre-spec RandomObstacleField salt reproduces the legacy generator's
// layouts bit for bit, seed by seed.
func TestGeneratorSpecMatchesLegacyStream(t *testing.T) {
	const salt = 0xabcdef12345
	spec := Spec{
		Bounds:    RectSpec{MaxX: StandardSize, MaxY: StandardSize},
		Generator: &GeneratorSpec{MinCount: 1, MaxCount: 4, MinSide: 80, MaxSide: 400, KeepClear: 30, Salt: salt},
	}
	for seed := uint64(1); seed <= 12; seed++ {
		legacyRng := rand.New(rand.NewPCG(seed, seed^salt))
		legacy, err := RandomObstacles(legacyRng, DefaultRandomObstacleConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy.Obstacles(), got.Obstacles()) {
			t.Fatalf("seed %d: generator spec diverged from the legacy stream", seed)
		}
		if legacy.Reference() != got.Reference() {
			t.Fatalf("seed %d: reference moved", seed)
		}
	}
}

// TestSpecValidation: structural errors are caught at parse/normalize
// time with messages naming the offending part.
func TestSpecValidation(t *testing.T) {
	cases := map[string]string{
		`{"bounds":{"max_x":0,"max_y":100}}`:                                                                          "no area",
		`{"bounds":{"max_x":100,"max_y":100},"obstacles":[{"rect":[1,2]}]}`:                                           "want 4",
		`{"bounds":{"max_x":100,"max_y":100},"obstacles":[{"points":[{"x":1,"y":1},{"x":2,"y":2}]}]}`:                 "at least 3 points",
		`{"bounds":{"max_x":100,"max_y":100},"obstacles":[{"rect":[1,1,2,2],"points":[{"x":1,"y":1}]}]}`:              "both rect and points",
		`{"bounds":{"max_x":100,"max_y":100},"generator":{"min_count":3,"max_count":1,"min_side":10,"max_side":20}}`:  "count range",
		`{"bounds":{"max_x":100,"max_y":100},"generator":{"min_count":1,"max_count":2,"min_side":0,"max_side":20}}`:   "side range",
		`{"bounds":{"max_x":100,"max_y":100},"bogus_key":1}`:                                                          "bogus_key",
		`{"bounds":{"max_x":100,"max_y":100},"obstacles":[{"rect":[0,0,0,1]}]}`:                                       "zero area",
		`{"bounds":{"max_x":100,"max_y":100},"obstacles":[{"points":[{"x":1,"y":1},{"x":2,"y":2},{"x":3,"y":3}]}]}`:   "zero area",
		`{"bounds":{"max_x":20000,"max_y":20000}}`:                                                                    "too large",
		`{"bounds":{"min_x":-1e308,"max_x":1e308,"max_y":100}}`:                                                       "too large",
		`{"bounds":{"max_x":100,"max_y":100},"generator":{"min_count":0,"max_count":1025,"min_side":1,"max_side":2}}`: "over the limit",
		// MaxCount − MinCount + 1 would overflow in the generator.
		`{"bounds":{"max_x":100,"max_y":100},"generator":{"min_count":0,"max_count":9223372036854775807,"min_side":1,"max_side":2}}`: "over the limit",
		`{"bounds":{"max_x":100,"max_y":100}} trailing`: "trailing",
	}
	for in, want := range cases {
		_, err := ParseSpec([]byte(in))
		if err == nil {
			t.Errorf("ParseSpec(%s) should error (want %q)", in, want)
			continue
		}
		if got := err.Error(); !contains(got, want) {
			t.Errorf("ParseSpec(%s) error %q should mention %q", in, got, want)
		}
	}
}

// TestSpecLimitsBuild: specs at the size limits are accepted and build.
func TestSpecLimitsBuild(t *testing.T) {
	for _, in := range []string{
		`{"bounds":{"max_x":10000,"max_y":10000}}`,
		`{"bounds":{"max_x":100,"max_y":100},"generator":{"min_count":1024,"max_count":1024,"min_side":1,"max_side":2,"keep_clear":5}}`,
	} {
		s, err := ParseSpec([]byte(in))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", in, err)
		}
		if _, err := s.Build(1); err != nil {
			t.Errorf("Build(%s): %v", in, err)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSpecBuildReference: the normalized reference defaults to the
// lower-left bounds corner, and a reference inside an obstacle is
// rejected at build time.
func TestSpecBuildReference(t *testing.T) {
	s := Spec{Bounds: RectSpec{MinX: 50, MinY: 60, MaxX: 500, MaxY: 600}}
	f, err := s.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Reference() != geom.V(50, 60) {
		t.Errorf("default reference = %v, want (50,60)", f.Reference())
	}

	blocked := Spec{
		Bounds:    RectSpec{MaxX: 500, MaxY: 500},
		Reference: &PointSpec{X: 100, Y: 100},
		Obstacles: []ObstacleSpec{{Rect: []float64{50, 50, 150, 150}}},
	}
	if _, err := blocked.Build(0); err == nil {
		t.Error("reference inside an obstacle should fail to build")
	}
}

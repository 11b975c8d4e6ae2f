package mobisense

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"mobisense/internal/field"
	istore "mobisense/internal/store"
)

// The axis system generalizes sweeps beyond scheme × scenario × N: any
// config parameter — communication range, sensing range, speed, a scheme
// option like FLOOR's invitation TTL or CPVF's oscillation factor δ, and
// the environment itself (obstacle count, obstacle density, base-station
// placement) — becomes a first-class sweep dimension. The paper's
// evaluation is exactly this shape: Figures 9–13 and Table 1 hold the
// deployment fixed and vary one or two knobs.
//
// An axis is data: a built-in axis name and an ordered value list. The
// setter that applies one value to a Config is looked up by name in one
// table, so a sweep's axes serialize, its store manifest names the whole
// computation, and deploy's -axis flag, the serve API and the paper's
// figures all reach the same axes. Sweep.Expand folds every axis into the
// cross-product; run specs, store records, aggregates and the HTTP API
// all carry the per-run axis values, so varying rc can never silently
// merge two different computations into one aggregate row.

// AxisSpec is one sweep axis: a built-in axis name (see Axes) and its
// ordered values, in Values for a numeric axis or in Strings for a
// categorical one. Numbers must be finite and >= 0, and whole on integer
// axes; strings must be among the axis's choices.
type AxisSpec struct {
	Name    string    `json:"name"`
	Values  []float64 `json:"values,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

// AxisValue is one axis assignment of an expanded run, carried on
// RunSpec, store records and aggregates; its stored form in
// internal/store documents the fields.
type AxisValue = istore.AxisValue

// AxisInfo describes one built-in axis: the documents of GET /v1/axes
// and of deploy's -axis help.
type AxisInfo struct {
	Name string `json:"name"`
	// Integer marks axes whose values must be whole numbers.
	Integer     bool   `json:"integer,omitempty"`
	Description string `json:"description,omitempty"`
	// String marks categorical axes; Choices lists their allowed values.
	// Requests pass them in AxisSpec.Strings instead of Values.
	String  bool     `json:"string,omitempty"`
	Choices []string `json:"choices,omitempty"`
}

// builtinAxis is one entry of the axis table. set applies one value to a
// run's config. It runs after the scheme, field, N and seed are
// assigned, so it may depend on them, and it copies an option struct
// before writing, so the shared base config stays untouched.
type builtinAxis struct {
	set     func(cfg *Config, v AxisValue)
	choices []string // the allowed values of a categorical axis; nil for numeric ones
	integer bool
	desc    string
}

// builtinAxes is the axis table: every axis a sweep can name.
var builtinAxes = map[string]builtinAxis{
	"rc":    {set: func(cfg *Config, v AxisValue) { cfg.Rc = v.Value }, desc: "communication range rc (m)"},
	"rs":    {set: func(cfg *Config, v AxisValue) { cfg.Rs = v.Value }, desc: "sensing range rs (m)"},
	"speed": {set: func(cfg *Config, v AxisValue) { cfg.Speed = v.Value }, desc: "maximum speed V (m/s)"},
	"cpvf.delta": {
		set:  func(cfg *Config, v AxisValue) { cpvfOptions(cfg).Delta = v.Value },
		desc: "CPVF oscillation-avoidance factor δ (§6.3)",
	},
	"cpvf.osc": {
		set:     func(cfg *Config, v AxisValue) { cpvfOptions(cfg).Oscillation = v.Str },
		choices: []string{"none", "one-step", "two-step"},
		desc:    "CPVF oscillation-avoidance mode (§6.3): none, one-step or two-step",
	},
	"floor.ttl": {
		set:     func(cfg *Config, v AxisValue) { floorOptions(cfg).TTL = int(v.Value) },
		integer: true,
		desc:    "FLOOR invitation random-walk TTL in hops (§5.2)",
	},
	"floor.ttl_frac": {
		// The paper gives Table 1's TTL as a fraction of N, so each
		// fraction resolves against the run's own sensor count.
		set:  func(cfg *Config, v AxisValue) { floorOptions(cfg).TTL = int(v.Value * float64(cfg.N)) },
		desc: "FLOOR invitation TTL as a fraction of N (Table 1); the TTL is int(fraction·N) hops",
	},
	"field.obstacles": {
		set: func(cfg *Config, v AxisValue) {
			regenerateField(cfg, func(spec *FieldSpec) {
				g := generatorOf(spec)
				g.MinCount, g.MaxCount = int(v.Value), int(v.Value)
				spec.Generator = g
			})
		},
		integer: true,
		desc:    "exact random-obstacle count; regenerates the field per axis point",
	},
	"field.density": {
		set: func(cfg *Config, v AxisValue) {
			regenerateField(cfg, func(spec *FieldSpec) {
				g := generatorOf(spec)
				b := spec.Bounds
				w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
				// Size the count from the side range the generator
				// actually samples (clamped to the field), or small
				// fields would silently undershoot the requested density.
				minSide, maxSide := g.ClampedSides(w, h)
				mean := (minSide + maxSide) / 2
				n := 0
				if mean > 0 {
					n = int(math.Round(v.Value * w * h / (mean * mean)))
				}
				g.MinCount, g.MaxCount = n, n
				spec.Generator = g
			})
		},
		desc: "target obstacle area fraction; picks a random-obstacle count to match and regenerates the field",
	},
	"field.ref": {
		set: func(cfg *Config, v AxisValue) {
			regenerateField(cfg, func(spec *FieldSpec) {
				b := spec.Bounds
				spec.Reference = &PointSpec{
					X: b.MinX + v.Value*(b.MaxX-b.MinX),
					Y: b.MinY + v.Value*(b.MaxY-b.MinY),
				}
			})
		},
		desc: "base-station placement: fraction 0..1 along the field diagonal from the lower-left corner",
	},
}

// cpvfOptions and floorOptions give an axis setter the run's own copy of
// the scheme's option struct to write into.
func cpvfOptions(cfg *Config) *CPVFOptions {
	o := CPVFOptions{}
	if cfg.CPVF != nil {
		o = *cfg.CPVF
	}
	cfg.CPVF = &o
	return &o
}

func floorOptions(cfg *Config) *FloorOptions {
	o := FloorOptions{}
	if cfg.Floor != nil {
		o = *cfg.Floor
	}
	cfg.Floor = &o
	return &o
}

// generatorOf returns a copy of the spec's generator, or the §6.4
// default side range when the field has none (fixed-geometry fields gain
// generated obstacles on top of their fixed ones). Counts are always
// overwritten by the caller.
func generatorOf(spec *FieldSpec) *GeneratorSpec {
	if spec.Generator != nil {
		g := *spec.Generator
		return &g
	}
	def := field.DefaultRandomObstacleConfig()
	return &GeneratorSpec{MinSide: def.MinSide, MaxSide: def.MaxSide, KeepClear: def.KeepClear}
}

// regenerateField rebuilds cfg.Field from a mutated copy of its spec,
// seeded by the run's environment seed (assigned per (scenario, repeat)
// slot, independent of the scheme, N and the other axes) so every run
// of one comparison point deploys into the same regenerated
// environment. Build failures — an unreachable reference point,
// obstacles that partition the field — are deferred to the run's
// validation, failing that run with a clear error instead of aborting
// the whole sweep expansion.
func regenerateField(cfg *Config, mutate func(*FieldSpec)) {
	if cfg.Field.internal() == nil {
		cfg.specErr = fmt.Errorf("mobisense: field axis applied to a config with no field")
		return
	}
	spec := cfg.Field.Spec()
	mutate(&spec)
	seed := cfg.fieldSeed
	if seed == 0 {
		seed = cfg.Seed
	}
	f, err := BuildFieldSpec(spec, seed)
	if err != nil {
		cfg.specErr = fmt.Errorf("mobisense: field axis: %w", err)
		return
	}
	cfg.Field = f
}

// Axes lists the built-in axes a sweep can name, sorted by name.
func Axes() []AxisInfo {
	out := make([]AxisInfo, 0, len(builtinAxes))
	for name, def := range builtinAxes {
		out = append(out, AxisInfo{Name: name, Integer: def.integer, Description: def.desc,
			String: def.choices != nil, Choices: slices.Clone(def.choices)})
	}
	slices.SortFunc(out, func(a, b AxisInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// check validates the axis against the table: a known name, a non-empty
// value list of the axis's kind, numbers finite, >= 0 and whole on
// integer axes, and strings among the axis's choices.
func (a AxisSpec) check() error {
	def, ok := builtinAxes[a.Name]
	if !ok {
		names := make([]string, 0, len(builtinAxes))
		for _, info := range Axes() {
			names = append(names, info.Name)
		}
		return fmt.Errorf("mobisense: unknown axis %q (have %s)", a.Name, strings.Join(names, ", "))
	}
	if def.choices != nil {
		if len(a.Strings) == 0 || len(a.Values) > 0 {
			return fmt.Errorf("mobisense: axis %q takes its values as strings (%s)", a.Name, strings.Join(def.choices, ", "))
		}
		for _, s := range a.Strings {
			if !slices.Contains(def.choices, s) {
				return fmt.Errorf("mobisense: axis %q has no value %q (have %s)", a.Name, s, strings.Join(def.choices, ", "))
			}
		}
		return nil
	}
	if len(a.Values) == 0 || len(a.Strings) > 0 {
		return fmt.Errorf("mobisense: axis %q takes its values as numbers", a.Name)
	}
	for _, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("mobisense: axis %q values must be finite numbers >= 0, got %g", a.Name, v)
		}
		if def.integer && math.Trunc(v) != v {
			return fmt.Errorf("mobisense: axis %q is integer-valued but has value %v", a.Name, v)
		}
	}
	return nil
}

// size returns the number of values the axis expands to.
func (a AxisSpec) size() int { return len(a.Values) + len(a.Strings) }

// value returns the checked axis's i-th assignment.
func (a AxisSpec) value(i int) AxisValue {
	if len(a.Strings) > 0 {
		return AxisValue{Name: a.Name, Str: a.Strings[i]}
	}
	return AxisValue{Name: a.Name, Value: a.Values[i]}
}

// stored returns the checked axis as a store manifest records it: a
// categorical axis with its strings and no numbers, a numeric one with
// its numbers only, whatever empty list a request carried beside them.
func (a AxisSpec) stored() istore.Axis {
	if len(a.Strings) > 0 {
		return istore.Axis{Name: a.Name, Strings: a.Strings}
	}
	return istore.Axis{Name: a.Name, Values: a.Values}
}

// ParseAxis parses the CLI axis syntax "name=v1,v2,..." into a checked
// axis. Categorical axes (cpvf.osc) take their values by name, e.g.
// "cpvf.osc=none,two-step"; integer-valued axes (floor.ttl,
// field.obstacles) reject fractional values.
func ParseAxis(spec string) (AxisSpec, error) {
	name, list, ok := strings.Cut(spec, "=")
	if !ok || name == "" || list == "" {
		return AxisSpec{}, fmt.Errorf("mobisense: bad axis %q: want \"name=v1,v2,...\", e.g. rc=30,60", spec)
	}
	ax, categorical := AxisSpec{Name: name}, builtinAxes[name].choices != nil
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if categorical {
			ax.Strings = append(ax.Strings, p)
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return AxisSpec{}, fmt.Errorf("mobisense: bad axis %q: value %q is not a number", spec, p)
		}
		ax.Values = append(ax.Values, v)
	}
	if err := ax.check(); err != nil {
		return AxisSpec{}, err
	}
	return ax, nil
}

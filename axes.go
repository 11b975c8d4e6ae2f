package mobisense

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mobisense/internal/field"
	istore "mobisense/internal/store"
)

// The axis system generalizes sweeps beyond scheme × scenario × N: any
// config parameter — communication range, sensing range, speed, a scheme
// option like FLOOR's invitation TTL or CPVF's oscillation factor δ, and
// since the field-spec refactor the environment itself (obstacle count,
// obstacle density, base-station placement) — becomes a first-class sweep
// dimension. The paper's evaluation is exactly this shape: Figures 9–13
// and Table 1 hold the deployment fixed and vary one or two knobs, which
// previously lived as hand-built config lists.
//
// An axis is a name, an ordered value list, and a setter that applies one
// value to a Config. Sweep.Expand folds every axis into the cross-product;
// run specs, store records, aggregates and the HTTP API all carry the
// per-run axis values, so varying rc can never silently merge two
// different computations into one aggregate row.

// ParamAxis is one generalized sweep dimension.
type ParamAxis struct {
	// Name identifies the axis in specs, records, aggregates and reports.
	Name string
	// Values is the ordered list of axis values to expand.
	Values []float64
	// Integer marks an axis whose values must be whole numbers (hop
	// counts, obstacle counts, round counts). Validation rejects
	// fractional values up front — the setter would otherwise truncate
	// silently while records carried the fractional value — and setters
	// receive values that round-trip exactly through float64.
	Integer bool
	// Set applies one value to a run's config. It runs after the scheme,
	// scenario field, N and seed are assigned, so setters may depend on
	// them (e.g. a TTL expressed as a fraction of N, or a field rebuilt
	// around a moved base station). Setters must not mutate structs shared
	// with the base config — copy option structs before writing.
	Set func(cfg *Config, v float64)
	// Strings is the ordered value list of a categorical (string-valued)
	// axis — oscillation modes, strategy names, backend choices. Mutually
	// exclusive with Values; categorical axes use SetString instead of
	// Set and flow through records, aggregates, report columns and the
	// serve API exactly like numeric ones.
	Strings []string
	// SetString applies one categorical value to a run's config; required
	// when Strings is set, with the same copy-before-write rules as Set.
	SetString func(cfg *Config, v string)
}

// categorical reports whether the axis is string-valued.
func (a ParamAxis) categorical() bool { return len(a.Strings) > 0 }

// size returns the number of values the axis expands to.
func (a ParamAxis) size() int {
	if a.categorical() {
		return len(a.Strings)
	}
	return len(a.Values)
}

func (a ParamAxis) validate() error {
	if a.Name == "" {
		return fmt.Errorf("mobisense: axis has no name")
	}
	if len(a.Values) > 0 && len(a.Strings) > 0 {
		return fmt.Errorf("mobisense: axis %q has both numeric and string values", a.Name)
	}
	if a.categorical() {
		if a.SetString == nil {
			return fmt.Errorf("mobisense: string-valued axis %q has no string setter", a.Name)
		}
		if a.Integer {
			return fmt.Errorf("mobisense: axis %q cannot be both integer- and string-valued", a.Name)
		}
		for _, s := range a.Strings {
			if s == "" {
				return fmt.Errorf("mobisense: string-valued axis %q has an empty value", a.Name)
			}
		}
		return nil
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("mobisense: axis %q has no values", a.Name)
	}
	if a.Set == nil {
		return fmt.Errorf("mobisense: axis %q has no setter", a.Name)
	}
	for _, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mobisense: axis %q has non-finite value %v", a.Name, v)
		}
	}
	if a.Integer {
		for _, v := range a.Values {
			if math.Trunc(v) != v {
				return fmt.Errorf("mobisense: axis %q is integer-valued but has value %v", a.Name, v)
			}
		}
	}
	return nil
}

// AxisValue is one axis assignment of an expanded run, carried on
// RunSpec, store records and aggregates; its stored form in
// internal/store documents the fields.
type AxisValue = istore.AxisValue

// AxisSpec is the serializable form of a built-in axis — the wire shape
// used by the server's SweepRequest (custom setters don't serialize).
// Exactly one of Values and Strings is set; resolve with BuildAxis or
// BuildStringAxis.
type AxisSpec struct {
	Name    string    `json:"name"`
	Values  []float64 `json:"values,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

// NewAxis defines a custom axis — the extension point for parameters the
// built-ins don't cover (oscillation modes, TTLs as a fraction of N,
// coupled rc/rs ratios, ...). Set ParamAxis.Integer afterwards for
// whole-number axes.
func NewAxis(name string, set func(cfg *Config, v float64), values ...float64) ParamAxis {
	return ParamAxis{Name: name, Values: values, Set: set}
}

// builtinAxis is one entry of the axis registry behind BuildAxis (and
// therefore the -axis CLI flag and the HTTP SweepRequest). Numeric axes
// fill set; categorical axes fill setStr (plus the allowed value list
// used for up-front validation).
type builtinAxis struct {
	set     func(cfg *Config, v float64)
	setStr  func(cfg *Config, v string)
	allowed []string
	integer bool
	desc    string
}

// builtinAxes maps axis names to their setters. Option-struct setters
// copy before writing so the shared base config stays untouched;
// field-rebuilding setters go through the spec layer and the shared
// build cache.
var builtinAxes = map[string]builtinAxis{
	"rc":    {set: func(cfg *Config, v float64) { cfg.Rc = v }, desc: "communication range rc (m)"},
	"rs":    {set: func(cfg *Config, v float64) { cfg.Rs = v }, desc: "sensing range rs (m)"},
	"speed": {set: func(cfg *Config, v float64) { cfg.Speed = v }, desc: "maximum speed V (m/s)"},
	"cpvf.delta": {
		set: func(cfg *Config, v float64) {
			o := CPVFOptions{}
			if cfg.CPVF != nil {
				o = *cfg.CPVF
			}
			o.Delta = v
			cfg.CPVF = &o
		},
		desc: "CPVF oscillation-avoidance factor δ (§6.3)",
	},
	"cpvf.osc": {
		setStr: func(cfg *Config, v string) {
			o := CPVFOptions{}
			if cfg.CPVF != nil {
				o = *cfg.CPVF
			}
			o.Oscillation = v
			cfg.CPVF = &o
		},
		allowed: []string{"none", "one-step", "two-step"},
		desc:    "CPVF oscillation-avoidance mode (§6.3): none, one-step or two-step",
	},
	"floor.ttl": {
		set: func(cfg *Config, v float64) {
			o := FloorOptions{}
			if cfg.Floor != nil {
				o = *cfg.Floor
			}
			o.TTL = int(v)
			cfg.Floor = &o
		},
		integer: true,
		desc:    "FLOOR invitation random-walk TTL in hops (§5.2)",
	},
	"field.obstacles": {
		set: func(cfg *Config, v float64) {
			regenerateField(cfg, func(spec *FieldSpec) {
				g := generatorOf(spec)
				g.MinCount, g.MaxCount = int(v), int(v)
				spec.Generator = g
			})
		},
		integer: true,
		desc:    "exact random-obstacle count; regenerates the field per axis point",
	},
	"field.density": {
		set: func(cfg *Config, v float64) {
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
					n = int(math.Round(v * w * h / (mean * mean)))
				}
				if n < 0 {
					n = 0
				}
				g.MinCount, g.MaxCount = n, n
				spec.Generator = g
			})
		},
		desc: "target obstacle area fraction; picks a random-obstacle count to match and regenerates the field",
	},
	"field.ref": {
		set: func(cfg *Config, v float64) {
			regenerateField(cfg, func(spec *FieldSpec) {
				b := spec.Bounds
				spec.Reference = &PointSpec{
					X: b.MinX + v*(b.MaxX-b.MinX),
					Y: b.MinY + v*(b.MaxY-b.MinY),
				}
			})
		},
		desc: "base-station placement: fraction 0..1 along the field diagonal from the lower-left corner",
	},
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

// AxisNames lists the built-in axis names BuildAxis accepts, sorted.
func AxisNames() []string {
	names := make([]string, 0, len(builtinAxes))
	for name := range builtinAxes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AxisRc, AxisRs and AxisSpeed sweep the communication range rc, sensing
// range rs and maximum speed V.
func AxisRc(values ...float64) ParamAxis    { return mustBuildAxis("rc", values) }
func AxisRs(values ...float64) ParamAxis    { return mustBuildAxis("rs", values) }
func AxisSpeed(values ...float64) ParamAxis { return mustBuildAxis("speed", values) }

// AxisCPVFDelta sweeps CPVF's oscillation-avoidance factor δ (§6.3).
func AxisCPVFDelta(values ...float64) ParamAxis { return mustBuildAxis("cpvf.delta", values) }

// AxisFloorTTL sweeps FLOOR's invitation random-walk TTL in hops (§5.2).
func AxisFloorTTL(values ...float64) ParamAxis { return mustBuildAxis("floor.ttl", values) }

// AxisFieldObstacles sweeps the exact random-obstacle count of the run's
// field, regenerating it per axis point (seed-paired across schemes).
func AxisFieldObstacles(values ...float64) ParamAxis { return mustBuildAxis("field.obstacles", values) }

// AxisFieldDensity sweeps the target obstacle area fraction of the run's
// field.
func AxisFieldDensity(values ...float64) ParamAxis { return mustBuildAxis("field.density", values) }

// AxisFieldRef sweeps the base-station placement as a fraction 0..1
// along the field diagonal, rebuilding the field around the moved
// reference point.
func AxisFieldRef(values ...float64) ParamAxis { return mustBuildAxis("field.ref", values) }

func mustBuildAxis(name string, values []float64) ParamAxis {
	ax, err := BuildAxis(name, values...)
	if err != nil {
		panic(err)
	}
	return ax
}

// BuildAxis resolves a built-in axis by name over the given values — the
// registry behind the CLI's -axis flag and the server's SweepRequest
// axes. Integer-valued axes reject fractional values here, before any
// run executes.
func BuildAxis(name string, values ...float64) (ParamAxis, error) {
	def, ok := builtinAxes[name]
	if !ok {
		return ParamAxis{}, fmt.Errorf("mobisense: unknown axis %q (have %s)", name, strings.Join(AxisNames(), ", "))
	}
	if def.setStr != nil {
		return ParamAxis{}, fmt.Errorf("mobisense: axis %q is string-valued; use BuildStringAxis", name)
	}
	ax := ParamAxis{Name: name, Values: values, Integer: def.integer, Set: def.set}
	if len(values) > 0 {
		if err := ax.validate(); err != nil {
			return ParamAxis{}, err
		}
	}
	return ax, nil
}

// BuildStringAxis resolves a built-in categorical axis by name over the
// given string values, validating each against the axis's allowed set.
func BuildStringAxis(name string, values ...string) (ParamAxis, error) {
	def, ok := builtinAxes[name]
	if !ok {
		return ParamAxis{}, fmt.Errorf("mobisense: unknown axis %q (have %s)", name, strings.Join(AxisNames(), ", "))
	}
	if def.setStr == nil {
		return ParamAxis{}, fmt.Errorf("mobisense: axis %q is numeric; use BuildAxis", name)
	}
	for _, v := range values {
		if len(def.allowed) > 0 && !slices.Contains(def.allowed, v) {
			return ParamAxis{}, fmt.Errorf("mobisense: axis %q has no value %q (have %s)", name, v, strings.Join(def.allowed, ", "))
		}
	}
	ax := ParamAxis{Name: name, Strings: values, SetString: def.setStr}
	if len(values) > 0 {
		if err := ax.validate(); err != nil {
			return ParamAxis{}, err
		}
	}
	return ax, nil
}

// AxisIsString reports whether the named built-in axis is categorical
// (string-valued); its allowed values are AxisStringValues.
func AxisIsString(name string) bool { return builtinAxes[name].setStr != nil }

// AxisStringValues returns the allowed values of a built-in categorical
// axis (nil for numeric or unknown names).
func AxisStringValues(name string) []string {
	return slices.Clone(builtinAxes[name].allowed)
}

// AxisIsInteger reports whether the named built-in axis takes integer
// values (and "" description for unknown names).
func AxisIsInteger(name string) bool { return builtinAxes[name].integer }

// AxisDescription returns the one-line description of a built-in axis.
func AxisDescription(name string) string { return builtinAxes[name].desc }

// ParseAxis parses the CLI axis syntax "name=v1,v2,..." into a built-in
// axis. Integer-valued axes (floor.ttl, field.obstacles) reject
// fractional values; categorical axes (cpvf.osc) take their values as
// strings, e.g. "cpvf.osc=none,two-step".
func ParseAxis(spec string) (ParamAxis, error) {
	name, list, ok := strings.Cut(spec, "=")
	if !ok || name == "" || list == "" {
		return ParamAxis{}, fmt.Errorf("mobisense: bad axis %q: want \"name=v1,v2,...\", e.g. rc=30,60", spec)
	}
	parts := strings.Split(list, ",")
	if AxisIsString(name) {
		values := make([]string, len(parts))
		for i, p := range parts {
			values[i] = strings.TrimSpace(p)
		}
		return BuildStringAxis(name, values...)
	}
	values := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return ParamAxis{}, fmt.Errorf("mobisense: bad axis %q: value %q is not a number", spec, p)
		}
		values[i] = v
	}
	return BuildAxis(name, values...)
}

// axisTupleKey condenses a run's axis assignments into a comparable string
// for aggregate grouping: two runs land in the same aggregate row only
// when every axis value matches. Runs without axes share the empty key,
// preserving the pre-axis grouping.
func axisTupleKey(axes []AxisValue) string {
	if len(axes) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, a := range axes {
		sb.WriteString(a.Name)
		sb.WriteByte('=')
		sb.WriteString(a.ValueString())
		sb.WriteByte(';')
	}
	return sb.String()
}

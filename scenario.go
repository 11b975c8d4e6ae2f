package mobisense

import (
	"fmt"
	"sort"
	"sync"

	"mobisense/internal/field"
)

// Scenario is a named deployment environment: a name, a one-line
// description and the declarative FieldSpec that builds it. Scenarios are
// resolved by string from the CLIs and from Sweep, so new environments
// plug in with a single registration. A scenario is data only: its spec
// encodes to JSON, embeds in store manifests, and rebuilds the exact same
// field anywhere.
type Scenario struct {
	// Name identifies the scenario (e.g. "two-obstacles").
	Name string
	// Description is a one-line summary for catalogs and -help output.
	Description string
	// Spec is the scenario's geometry. RegisterScenario normalizes it, so
	// lookups always observe the canonical form. Spec.Seeded reports
	// whether the built field varies with the seed; unseeded scenarios
	// are built once and shared across runs.
	Spec FieldSpec
}

var (
	scenarioMu      sync.RWMutex
	scenarioByName  = map[string]Scenario{}
	scenarioAliases = map[string]string{}
)

// RegisterScenario adds a scenario to the registry; it panics on an empty
// name, a missing or invalid spec, or a duplicate registration.
func RegisterScenario(sc Scenario) {
	if sc.Name == "" || sc.Spec.Empty() {
		panic("mobisense: RegisterScenario needs a name and a Spec")
	}
	n, err := sc.Spec.Normalize()
	if err != nil {
		panic(fmt.Sprintf("mobisense: scenario %q: %v", sc.Name, err))
	}
	n.Name = sc.Name
	sc.Spec = n
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioByName[sc.Name]; dup {
		panic(fmt.Sprintf("mobisense: scenario %q registered twice", sc.Name))
	}
	if _, dup := scenarioAliases[sc.Name]; dup {
		panic(fmt.Sprintf("mobisense: scenario %q shadows an alias", sc.Name))
	}
	scenarioByName[sc.Name] = sc
}

// registerScenarioAlias makes alias resolve to the scenario named name.
func registerScenarioAlias(alias, name string) {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioByName[alias]; dup {
		panic(fmt.Sprintf("mobisense: alias %q shadows a scenario", alias))
	}
	scenarioAliases[alias] = name
}

// LookupScenario resolves a scenario by name or alias.
func LookupScenario(name string) (Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	if target, ok := scenarioAliases[name]; ok {
		name = target
	}
	sc, ok := scenarioByName[name]
	return sc, ok
}

// Scenarios returns the registered scenarios sorted by name (aliases are
// not listed).
func Scenarios() []Scenario {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	out := make([]Scenario, 0, len(scenarioByName))
	for _, sc := range scenarioByName {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	scs := Scenarios()
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.Name
	}
	return out
}

// BuildScenario constructs the named scenario's field with BuildFieldSpec.
// For seeded scenarios the seed selects the generated environment. Builds
// are cached, so the schemes of a paired comparison — and repeated
// requests for the same generated environment — share one field instead
// of regenerating it.
func BuildScenario(name string, seed uint64) (Field, error) {
	sc, ok := LookupScenario(name)
	if !ok {
		return Field{}, fmt.Errorf("mobisense: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return BuildFieldSpec(sc.Spec, seed)
}

// standardBoundsSpec is the paper's 1000×1000 m field rectangle (§4.3).
func standardBoundsSpec() RectSpec {
	return RectSpec{MaxX: field.StandardSize, MaxY: field.StandardSize}
}

func init() {
	RegisterScenario(Scenario{
		Name:        "free",
		Description: "the paper's obstacle-free 1000×1000 m field (§4.3)",
		Spec:        FieldSpec{Bounds: standardBoundsSpec()},
	})
	registerScenarioAlias("obstacle-free", "free")

	RegisterScenario(Scenario{
		Name:        "two-obstacles",
		Description: "two wall slabs boxing in the initial cluster with three exits (Fig 3c/8c)",
		Spec: FieldSpec{
			Bounds: standardBoundsSpec(),
			Obstacles: []ObstacleSpec{
				RectObstacle(500, 40, 550, 500),  // vertical slab; bottom exit y ∈ [0,40]
				RectObstacle(120, 500, 450, 550), // horizontal slab; left exit x ∈ [0,120], corner exit x ∈ [450,500]
			},
		},
	})

	def := field.DefaultRandomObstacleConfig()
	RegisterScenario(Scenario{
		Name:        "random-obstacles",
		Description: "1–4 random rectangular obstacles per §6.4; the seed picks the layout",
		Spec: FieldSpec{
			Bounds: standardBoundsSpec(),
			// §6.4's ranges; the salt keeps the pre-spec random stream, so
			// old seeds keep producing bit-identical layouts.
			Generator: &GeneratorSpec{MinCount: def.MinCount, MaxCount: def.MaxCount,
				MinSide: def.MinSide, MaxSide: def.MaxSide, KeepClear: def.KeepClear, Salt: 0xabcdef12345},
		},
	})
	registerScenarioAlias("random", "random-obstacles")

	RegisterScenario(Scenario{
		Name:        "corridor",
		Description: "serpentine corridor folded by three wall slabs with alternating gaps",
		Spec: FieldSpec{
			Bounds: standardBoundsSpec(),
			Obstacles: []ObstacleSpec{
				RectObstacle(150, 200, 1000, 260), // gap at the left edge
				RectObstacle(0, 450, 850, 510),    // gap at the right edge
				RectObstacle(150, 700, 1000, 760), // gap at the left edge
			},
		},
	})
	registerScenarioAlias("maze", "corridor")

	RegisterScenario(Scenario{
		Name:        "campus",
		Description: "800×600 m campus: three buildings forming two corridors and a quad",
		Spec: FieldSpec{
			Bounds: RectSpec{MaxX: 800, MaxY: 600},
			Obstacles: []ObstacleSpec{
				RectObstacle(150, 100, 350, 250), // west hall
				RectObstacle(450, 100, 650, 250), // east hall
				RectObstacle(250, 350, 550, 480), // north hall
			},
		},
	})

	RegisterScenario(Scenario{
		Name:        "disaster",
		Description: "disaster zone strewn with 3–6 random debris fields; the seed picks the layout",
		Spec: FieldSpec{
			Bounds:    standardBoundsSpec(),
			Generator: &GeneratorSpec{MinCount: 3, MaxCount: 6, MinSide: 60, MaxSide: 250, KeepClear: 30, Salt: 0x6d0b15a7e9c3},
		},
	})

	RegisterScenario(Scenario{
		Name:        "narrow-door",
		Description: "a 40 m thick wall splits the field, pierced by a single 50 m door — the connectivity stress test",
		Spec: FieldSpec{
			Bounds: standardBoundsSpec(),
			Obstacles: []ObstacleSpec{
				RectObstacle(480, 0, 520, 475),    // south wall segment
				RectObstacle(480, 525, 520, 1000), // north wall segment; door y ∈ [475,525]
			},
		},
	})
	registerScenarioAlias("door", "narrow-door")

	RegisterScenario(Scenario{
		Name:        "l-shaped",
		Description: "L-shaped free space: the north-east quadrant of the 1000×1000 m field is solid",
		Spec: FieldSpec{
			Bounds:    standardBoundsSpec(),
			Obstacles: []ObstacleSpec{RectObstacle(500, 500, 1000, 1000)},
		},
	})
	registerScenarioAlias("l", "l-shaped")

	RegisterScenario(Scenario{
		Name: "random-field",
		Description: "parameterized random field: 2–8 rectangles of 50–300 m; sweep obstacle count or density " +
			"with the field.obstacles / field.density axes",
		Spec: FieldSpec{
			Bounds:    standardBoundsSpec(),
			Generator: &GeneratorSpec{MinCount: 2, MaxCount: 8, MinSide: 50, MaxSide: 300, KeepClear: 30, Salt: 0x51f0e7d2c4b1},
		},
	})
}

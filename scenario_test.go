package mobisense

import (
	"strings"
	"testing"
)

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Errorf("expected a panic mentioning %q", want)
			return
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", v)
		}
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q should mention %q", msg, want)
		}
	}()
	fn()
}

func TestBuildScenarioUnknownName(t *testing.T) {
	_, err := BuildScenario("atlantis", 1)
	if err == nil {
		t.Fatal("unknown scenario should error")
	}
	// The error must name the unknown scenario and list the known ones so
	// CLI typos are self-diagnosing.
	msg := err.Error()
	if !strings.Contains(msg, "atlantis") {
		t.Errorf("error %q should name the unknown scenario", msg)
	}
	if !strings.Contains(msg, "free") || !strings.Contains(msg, "two-obstacles") {
		t.Errorf("error %q should list the registered scenarios", msg)
	}
	if _, ok := LookupScenario("atlantis"); ok {
		t.Error("LookupScenario should miss on unknown names")
	}
}

func TestScenarioAliasLookup(t *testing.T) {
	for alias, target := range map[string]string{
		"obstacle-free": "free",
		"random":        "random-obstacles",
		"maze":          "corridor",
	} {
		sc, ok := LookupScenario(alias)
		if !ok {
			t.Errorf("alias %q missing", alias)
			continue
		}
		if sc.Name != target {
			t.Errorf("alias %q resolved to %q, want %q", alias, sc.Name, target)
		}
		// An alias builds the same field as its target.
		af, err := BuildScenario(alias, 3)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := BuildScenario(target, 3)
		if err != nil {
			t.Fatal(err)
		}
		aw, ah := af.Bounds()
		tw, th := tf.Bounds()
		if aw != tw || ah != th || af.NumObstacles() != tf.NumObstacles() {
			t.Errorf("alias %q builds a different field than %q", alias, target)
		}
	}
	// Aliases are lookup-only: they must not appear in the catalog.
	for _, sc := range Scenarios() {
		if sc.Name == "obstacle-free" || sc.Name == "random" || sc.Name == "maze" {
			t.Errorf("alias %q leaked into Scenarios()", sc.Name)
		}
	}
}

func TestRegisterScenarioValidation(t *testing.T) {
	spec := FieldSpec{Bounds: RectSpec{MaxX: 100, MaxY: 100}}

	mustPanic(t, "needs a name and a Spec", func() {
		RegisterScenario(Scenario{Name: "", Spec: spec})
	})
	mustPanic(t, "needs a name and a Spec", func() {
		RegisterScenario(Scenario{Name: "no-spec"})
	})
	// A spec that cannot normalize is rejected at registration, not at
	// first build.
	mustPanic(t, "bounds", func() {
		RegisterScenario(Scenario{Name: "degenerate",
			Spec: FieldSpec{Obstacles: []ObstacleSpec{RectObstacle(0, 0, 10, 10)}}})
	})

	// Duplicate registration of an existing scenario panics and leaves the
	// original registration intact.
	mustPanic(t, "registered twice", func() {
		RegisterScenario(Scenario{Name: "free", Spec: spec})
	})
	sc, ok := LookupScenario("free")
	if !ok || sc.Spec.Bounds.MaxX != 1000 {
		t.Error("duplicate panic must not clobber the original scenario")
	}

	// A scenario may not take a name already used as an alias, and an
	// alias may not shadow a scenario.
	mustPanic(t, "shadows an alias", func() {
		RegisterScenario(Scenario{Name: "maze", Spec: spec})
	})
	mustPanic(t, "shadows a scenario", func() {
		registerScenarioAlias("free", "two-obstacles")
	})
	for _, name := range []string{"", "no-spec", "degenerate", "maze"} {
		if _, ok := scenarioByName[name]; ok {
			t.Errorf("a refused registration left scenario %q behind", name)
		}
	}
}

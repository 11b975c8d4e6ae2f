package floor

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mobisense/internal/core"
	"mobisense/internal/field"
	"mobisense/internal/geom"
)

// filterThenDraw is the reference non-backtracking hop: copy the list
// without prev when any alternative exists, then draw uniformly.
func filterThenDraw(rng *rand.Rand, nbrs []int, prev int) (int, bool) {
	cands := nbrs
	if len(nbrs) > 1 && prev >= 0 {
		cands = nil
		for _, n := range nbrs {
			if n != prev {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.IntN(len(cands))], true
}

// TestNextHopMatchesFilterThenDraw: skipping prev by index picks the same
// neighbor as filtering it out first and leaves the rng in the same
// state, over random sorted lists with prev present, absent, the only
// neighbor, and no walk history (prev = -1).
func TestNextHopMatchesFilterThenDraw(t *testing.T) {
	lists := rand.New(rand.NewPCG(1408, 1))
	cases := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		var nbrs []int
		for id := 0; id < 40; id++ {
			if lists.IntN(4) == 0 {
				nbrs = append(nbrs, id)
			}
		}
		if lists.IntN(5) == 0 {
			nbrs = nbrs[:min(len(nbrs), lists.IntN(3))]
		}
		prev := lists.IntN(41) - 1
		if len(nbrs) > 0 && lists.IntN(2) == 0 {
			prev = nbrs[lists.IntN(len(nbrs))]
		}
		_, present := slices.BinarySearch(nbrs, prev)
		switch {
		case len(nbrs) == 0:
			cases["empty"]++
		case prev < 0:
			cases["no prev"]++
		case present && len(nbrs) == 1:
			cases["prev only"]++
		case present:
			cases["prev present"]++
		default:
			cases["prev absent"]++
		}
		seed := lists.Uint64()
		got := rand.New(rand.NewPCG(seed, 2))
		want := rand.New(rand.NewPCG(seed, 2))
		gotHop, gotOK := nextHop(got, nbrs, prev)
		wantHop, wantOK := filterThenDraw(want, nbrs, prev)
		if gotHop != wantHop || gotOK != wantOK {
			t.Fatalf("nbrs %v prev %d: nextHop = (%d, %v), filter-then-draw = (%d, %v)",
				nbrs, prev, gotHop, gotOK, wantHop, wantOK)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("nbrs %v prev %d: rng diverged after the hop (%x vs %x)", nbrs, prev, g, w)
		}
	}
	for _, c := range []string{"empty", "no prev", "prev only", "prev present", "prev absent"} {
		if cases[c] == 0 {
			t.Errorf("case %q never drawn", c)
		}
	}
}

// TestWalkMemoMatchesNeighbors: within a generation a memoized list is
// the world's current sorted neighbor list, and the first lookup after
// next sees motion since the previous generation. Once the arena has
// grown, a generation of lookups allocates nothing.
func TestWalkMemoMatchesNeighbors(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 300, 300), nil)
	p := core.DefaultParams()
	p.N = 60
	p.InitRegion = f.Bounds()
	w, err := core.NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1408, 3))
	m := walkMemo{ent: make([]memoEntry, p.N)}
	for gen := 0; gen < 30; gen++ {
		m.next()
		for k := 0; k < 3*p.N; k++ {
			id := rng.IntN(p.N)
			if got, want := m.neighbors(w, id), w.Neighbors(id, p.Rc); !slices.Equal(got, want) {
				t.Fatalf("generation %d: memo for %d = %v, world %v", gen, id, got, want)
			}
		}
		// Move everyone between generations.
		for id := 0; id < p.N; id++ {
			from := w.Pos(id)
			to := from.Add(geom.V(rng.Float64()*2-1, rng.Float64()*2-1).Scale(p.MaxStep() / 2)).Clamp(f.Bounds())
			w.BeginStep(id, to, from.Dist(to), p.Period)
		}
		w.E.RunUntil(w.Now() + p.Period)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		m.next()
		for id := 0; id < p.N; id++ {
			m.neighbors(w, id)
		}
	}); allocs != 0 {
		t.Errorf("a warm memo generation allocates %v times, want 0", allocs)
	}
}

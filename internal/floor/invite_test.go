package floor

import (
	"math/rand/v2"
	"slices"
	"testing"
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

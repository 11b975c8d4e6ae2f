package floor

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mobisense/internal/core"
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

// TestAnchoredMatchesNearestFixed runs FLOOR deployments with injected
// failures, with and without the scheme's repair handler (without it a
// dead fixed sensor keeps its fixed state), and at many instants asks
// every idle movable's anchor check. anchored must report a fixed sensor
// within rc exactly when the full scan nearestFixedWithin finds one, and
// the anchor it keeps must be fixed, live and within rc. Both of its
// paths, the previous anchor and the kept rc answer, must answer.
func TestAnchoredMatchesNearestFixed(t *testing.T) {
	var kept, scanned, unanchored int
	for _, repair := range []bool{true, false} {
		for seed := uint64(1); seed <= 2; seed++ {
			p := smallParams()
			p.N = 60
			p.Seed = seed
			p.Duration = 500
			w, err := core.NewWorld(smallField(t), p)
			if err != nil {
				t.Fatal(err)
			}
			s := New(DefaultConfig())
			s.Attach(w)
			inj := &core.FailureInjector{Interval: 25, MaxKills: 12}
			if repair {
				inj.OnKill = s.HandleFailure
			}
			inj.Attach(w)
			for now := 0.0; now < p.Duration; now += 0.37 {
				w.E.RunUntil(now)
				for id := range w.Sensors {
					if s.st[id] != stateMovable || w.Sensors[id].Failed {
						continue
					}
					a := s.anchor[id]
					if a != core.NoParent && s.st[a] == stateFixed && !w.Sensors[a].Failed && w.Pos(a).Dist(w.Pos(id)) <= p.Rc {
						kept++
					} else {
						scanned++
					}
					got := s.anchored(id)
					if want := s.nearestFixedWithin(id, p.Rc) != core.NoParent; got != want {
						t.Fatalf("t=%v: anchored(%d) = %v, nearestFixedWithin finds a fixed sensor: %v", w.Now(), id, got, want)
					}
					if !got {
						unanchored++
						continue
					}
					if a := s.anchor[id]; s.st[a] != stateFixed || w.Sensors[a].Failed || w.Pos(a).Dist(w.Pos(id)) > p.Rc {
						t.Fatalf("t=%v: movable %d keeps anchor %d (state %v, failed %v, %v m away)",
							w.Now(), id, a, s.StateName(a), w.Sensors[a].Failed, w.Pos(a).Dist(w.Pos(id)))
					}
				}
			}
			if inj.Killed() == 0 {
				t.Fatalf("seed %d: no sensor died", seed)
			}
			w.Release()
		}
	}
	t.Logf("anchor checks: %d kept anchors, %d kept-answer scans, %d unanchored", kept, scanned, unanchored)
	if kept == 0 || scanned == 0 {
		t.Errorf("kept anchors answered %d checks and scans %d; want both > 0", kept, scanned)
	}
}

// Package spatial provides a uniform-grid spatial index for neighbor
// queries over moving sensors. The deployment simulator queries "all
// sensors within rc of p" once per sensor per period; the grid makes that
// O(neighbors) instead of O(n).
//
// When the point population lives inside known bounds (the usual case: a
// deployment field), the index uses a dense cell array over a flat arena
// of IDs, with each slot's position kept beside it, instead of a map of
// slices, so Insert/Move/Neighbors touch no per-cell heap objects. Points
// that stray outside the bounds fall back to a small overflow map, so
// bounded construction is an optimization, never a correctness
// constraint.
package spatial

import (
	"math"
	"slices"
	"sync"

	"mobisense/internal/geom"
)

// Index is a uniform grid over 2-D points identified by dense integer
// IDs. The zero value is not usable; construct with New or NewBounded.
type Index struct {
	cellSize float64

	// Dense grid (bounded mode). Cell (cx, cy) in key space maps to
	// dense[(cy-oy)*ncx + (cx-ox)] when ox <= cx < ox+ncx and likewise
	// for y; its elements live in arena[off : off+n], and apos[i] is
	// the position of the point in arena slot i, so a query reads the
	// cell's positions in slot order instead of through pos.
	bounded  bool
	ox, oy   int32
	ncx, ncy int32
	dense    []bucket
	arena    []int32
	apos     []geom.Vec
	freeByC  [arenaClasses][]int32 // free block offsets by capacity class

	// overflow holds cells outside the dense range (and every cell in
	// unbounded mode).
	overflow map[cellKey][]int32

	pos     []geom.Vec
	present []bool
	count   int
}

// bucket is one dense cell: a block of the shared arena. Capacity is
// always 0 or 1<<class with class >= minClass.
type bucket struct{ off, n, cap int32 }

type cellKey struct{ x, y int32 }

const (
	minClass     = 2 // smallest arena block: 4 elements
	arenaClasses = 28
	// maxDenseCells caps the dense grid size; absurdly fine cell sizes
	// over large bounds fall back to the overflow map rather than
	// allocating a huge, mostly-empty array.
	maxDenseCells = 1 << 20
)

// indexPool recycles released indexes (their grid, arena, overflow map
// and dense arrays) across runs: the deployment simulator builds one
// index per run, and sweeps run thousands.
var indexPool sync.Pool

// New creates an unbounded index with the given cell size. Choosing the
// typical query radius as the cell size keeps each query to a 3×3 cell
// scan. A pooled index is reused when available (see Release); reuse
// never changes query results or iteration determinism, because every
// pooled bucket is emptied first.
func New(cellSize float64, capacityHint int) *Index {
	return newIndex(cellSize, false, geom.Rect{}, capacityHint)
}

// NewBounded creates an index whose points are expected to stay within
// bounds b (e.g. the deployment field). Cells inside the bounds use a
// dense array with flat bucket storage; points outside are still indexed
// correctly through an overflow map.
func NewBounded(cellSize float64, b geom.Rect, capacityHint int) *Index {
	return newIndex(cellSize, true, b, capacityHint)
}

func newIndex(cellSize float64, bounded bool, b geom.Rect, capacityHint int) *Index {
	var ix *Index
	if v := indexPool.Get(); v != nil {
		ix = v.(*Index)
	} else {
		ix = &Index{
			overflow: make(map[cellKey][]int32, capacityHint),
			pos:      make([]geom.Vec, 0, capacityHint),
			present:  make([]bool, 0, capacityHint),
		}
	}
	ix.reset(cellSize, bounded, b)
	return ix
}

// Release returns the index to the shared pool for reuse by a future
// New/NewBounded. The index must not be used after Release.
func (ix *Index) Release() {
	indexPool.Put(ix)
}

// Reset empties the index and reconfigures it as NewBounded(cellSize, b)
// would, keeping every buffer's capacity: an owner that rebuilds an index
// over and over (a per-sample connectivity check) allocates nothing once
// the buffers have grown.
func (ix *Index) Reset(cellSize float64, b geom.Rect) {
	ix.reset(cellSize, true, b)
}

// reset reconfigures a (possibly pooled) index for a new run, keeping
// the overflow map's bucket slices, the arena and the dense arrays'
// capacity.
func (ix *Index) reset(cellSize float64, bounded bool, b geom.Rect) {
	if cellSize <= 0 {
		cellSize = 1
	}
	ix.cellSize = cellSize
	ix.bounded = false
	if bounded {
		// One cell of margin on each side absorbs points that brush the
		// boundary; anything further out lands in the overflow map.
		lo := ix.key(b.Min)
		hi := ix.key(b.Max)
		ncx := int64(hi.x-lo.x) + 3
		ncy := int64(hi.y-lo.y) + 3
		if ncx > 0 && ncy > 0 && ncx*ncy <= maxDenseCells {
			ix.bounded = true
			ix.ox, ix.oy = lo.x-1, lo.y-1
			ix.ncx, ix.ncy = int32(ncx), int32(ncy)
			n := int(ncx * ncy)
			if cap(ix.dense) < n {
				ix.dense = make([]bucket, n)
			} else {
				ix.dense = ix.dense[:n]
				clear(ix.dense)
			}
		}
	}
	if !ix.bounded {
		ix.dense = ix.dense[:0]
	}
	ix.arena = ix.arena[:0]
	ix.apos = ix.apos[:0]
	for c := range ix.freeByC {
		ix.freeByC[c] = ix.freeByC[c][:0]
	}
	for k, bkt := range ix.overflow {
		ix.overflow[k] = bkt[:0]
	}
	ix.pos = ix.pos[:0]
	ix.present = ix.present[:0]
	ix.count = 0
}

func (ix *Index) key(p geom.Vec) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / ix.cellSize)),
		y: int32(math.Floor(p.Y / ix.cellSize)),
	}
}

// denseIdx returns the dense-array index for a cell key, or -1 if the
// cell is outside the dense range (or the index is unbounded).
func (ix *Index) denseIdx(k cellKey) int32 {
	if !ix.bounded {
		return -1
	}
	gx, gy := k.x-ix.ox, k.y-ix.oy
	if gx < 0 || gx >= ix.ncx || gy < 0 || gy >= ix.ncy {
		return -1
	}
	return gy*ix.ncx + gx
}

// allocBlock returns the arena offset of a free block with capacity
// 1<<class, reusing a freed block when one is available.
func (ix *Index) allocBlock(class int32) int32 {
	if fl := ix.freeByC[class]; len(fl) > 0 {
		off := fl[len(fl)-1]
		ix.freeByC[class] = fl[:len(fl)-1]
		return off
	}
	// Extending the arenas reuses capacity left by a reset; a block's
	// stale contents are never read before being written.
	off := len(ix.arena)
	ix.arena = slices.Grow(ix.arena, 1<<class)[:off+1<<class]
	ix.apos = slices.Grow(ix.apos, 1<<class)[:off+1<<class]
	return int32(off)
}

func classOf(capacity int32) int32 {
	c := int32(minClass)
	for int32(1)<<c < capacity {
		c++
	}
	return c
}

// appendDense appends id at position p to the dense cell di, growing its
// arena block when full. Element order within a cell is append order
// (with swap-remove), matching the map-of-slices implementation exactly.
func (ix *Index) appendDense(di int32, id int32, p geom.Vec) {
	b := &ix.dense[di]
	if b.n == b.cap {
		newCap := int32(1) << minClass
		if b.cap > 0 {
			newCap = b.cap * 2
		}
		class := classOf(newCap)
		newOff := ix.allocBlock(class)
		copy(ix.arena[newOff:newOff+b.n], ix.arena[b.off:b.off+b.n])
		copy(ix.apos[newOff:newOff+b.n], ix.apos[b.off:b.off+b.n])
		if b.cap > 0 {
			ix.freeByC[classOf(b.cap)] = append(ix.freeByC[classOf(b.cap)], b.off)
		}
		b.off, b.cap = newOff, int32(1)<<class
	}
	ix.arena[b.off+b.n] = id
	ix.apos[b.off+b.n] = p
	b.n++
}

// Insert adds or moves the point with the given ID to position p. IDs must
// be small non-negative integers (they index an internal dense array).
func (ix *Index) Insert(id int, p geom.Vec) {
	for id >= len(ix.pos) {
		ix.pos = append(ix.pos, geom.Vec{})
		ix.present = append(ix.present, false)
	}
	if ix.present[id] {
		ix.removeFromCell(id, ix.key(ix.pos[id]))
	} else {
		ix.count++
	}
	ix.pos[id] = p
	ix.present[id] = true
	k := ix.key(p)
	if di := ix.denseIdx(k); di >= 0 {
		ix.appendDense(di, int32(id), p)
	} else {
		ix.overflow[k] = append(ix.overflow[k], int32(id))
	}
}

// Remove deletes the point with the given ID, if present.
func (ix *Index) Remove(id int) {
	if id < 0 || id >= len(ix.present) || !ix.present[id] {
		return
	}
	ix.removeFromCell(id, ix.key(ix.pos[id]))
	ix.present[id] = false
	ix.count--
}

func (ix *Index) removeFromCell(id int, k cellKey) {
	if di := ix.denseIdx(k); di >= 0 {
		b := &ix.dense[di]
		elems := ix.arena[b.off : b.off+b.n]
		for i, v := range elems {
			if v == int32(id) {
				j, last := b.off+int32(i), b.off+b.n-1
				ix.arena[j], ix.apos[j] = ix.arena[last], ix.apos[last]
				b.n--
				return
			}
		}
		return
	}
	bkt := ix.overflow[k]
	for i, v := range bkt {
		if v == int32(id) {
			bkt[i] = bkt[len(bkt)-1]
			ix.overflow[k] = bkt[:len(bkt)-1]
			return
		}
	}
}

// Position returns the indexed position of id and whether it is present.
func (ix *Index) Position(id int) (geom.Vec, bool) {
	if id < 0 || id >= len(ix.present) || !ix.present[id] {
		return geom.Vec{}, false
	}
	return ix.pos[id], true
}

// cellElems returns the elements of cell k, whether dense or overflow.
func (ix *Index) cellElems(k cellKey) []int32 {
	if di := ix.denseIdx(k); di >= 0 {
		b := ix.dense[di]
		return ix.arena[b.off : b.off+b.n]
	}
	return ix.overflow[k]
}

// AppendWithin appends to dst the ID of every indexed point within
// radius r of p (Dist2 <= r²), except the point with ID skip, and
// returns the extended slice; a querying sensor excludes itself by
// passing its own ID, and a negative skip excludes nothing. When nothing
// matches, dst is returned as passed, so a nil dst stays nil. The order
// is rows bottom-up, cells left to right, slot order within a cell:
// deterministic for a fixed insertion history, and identical whether the
// index is bounded or not.
func (ix *Index) AppendWithin(dst []int32, skip int, p geom.Vec, r float64) []int32 {
	r2 := r * r
	lo := ix.key(geom.V(p.X-r, p.Y-r))
	hi := ix.key(geom.V(p.X+r, p.Y+r))
	sk := int32(skip)
	if ix.bounded && lo.x >= ix.ox && hi.x < ix.ox+ix.ncx && lo.y >= ix.oy && hi.y < ix.oy+ix.ncy {
		// The window lies inside the dense grid, so each of its rows is
		// one contiguous run of buckets, and each bucket's positions sit
		// beside its IDs. With room made for a bucket's IDs first, the
		// filter writes each ID and advances past it only if it matches:
		// a conditional set, where a branch on the distance test would
		// mispredict.
		w := hi.x - lo.x + 1
		gy0, gy1, gx0 := lo.y-ix.oy, hi.y-ix.oy, lo.x-ix.ox
		k := len(dst)
		out := dst[:cap(dst)]
		for gy := gy0; gy <= gy1; gy++ {
			for _, b := range ix.dense[gy*ix.ncx+gx0:][:w] {
				if b.n == 0 {
					continue
				}
				if len(out)-k < int(b.n) {
					out = slices.Grow(out[:k], int(b.n))
					out = out[:cap(out)]
				}
				pts := ix.apos[b.off : b.off+b.n]
				ids := ix.arena[b.off : b.off+b.n][:len(pts)]
				for i, q := range pts {
					id := ids[i]
					out[k] = id
					keep := q.Dist2(p) <= r2
					if id == sk {
						keep = false
					}
					k += b2i(keep)
				}
			}
		}
		if k == len(dst) {
			return dst
		}
		return out[:k]
	}
	for cy := lo.y; cy <= hi.y; cy++ {
		for cx := lo.x; cx <= hi.x; cx++ {
			for _, id := range ix.cellElems(cellKey{cx, cy}) {
				if id != sk && ix.pos[id].Dist2(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TakeWithin removes every indexed point within radius r of p (the same
// predicate as AppendWithin) and appends their IDs to dst, returning the
// extended slice. A search that visits each point once — a flood fill —
// takes what it reaches, so later queries never rescan it.
func (ix *Index) TakeWithin(p geom.Vec, r float64, dst []int) []int {
	r2 := r * r
	lo := ix.key(geom.V(p.X-r, p.Y-r))
	hi := ix.key(geom.V(p.X+r, p.Y+r))
	for cy := lo.y; cy <= hi.y; cy++ {
		for cx := lo.x; cx <= hi.x; cx++ {
			k := cellKey{cx, cy}
			di := ix.denseIdx(k)
			var elems []int32
			var pts []geom.Vec // a dense cell's positions, moved with its IDs
			if di >= 0 {
				b := ix.dense[di]
				elems, pts = ix.arena[b.off:b.off+b.n], ix.apos[b.off:b.off+b.n]
			} else {
				elems = ix.overflow[k]
			}
			n := len(elems)
			for i := 0; i < n; {
				id := elems[i]
				if !(ix.pos[id].Dist2(p) <= r2) {
					i++
					continue
				}
				dst = append(dst, int(id))
				ix.present[id] = false
				ix.count--
				n--
				elems[i] = elems[n]
				if pts != nil {
					pts[i] = pts[n]
				}
			}
			if n == len(elems) {
				continue
			}
			if di >= 0 {
				ix.dense[di].n = int32(n)
			} else {
				ix.overflow[k] = elems[:n]
			}
		}
	}
	return dst
}

// Neighbors returns the IDs of all points within radius r of p, in
// ascending ID order.
func (ix *Index) Neighbors(p geom.Vec, r float64) []int {
	var out []int
	for _, id := range ix.AppendWithin(nil, -1, p, r) {
		out = append(out, int(id))
	}
	slices.Sort(out)
	return out
}

// Len returns the number of points currently in the index.
func (ix *Index) Len() int { return ix.count }

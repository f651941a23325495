package dse

import (
	"sync"
	"sync/atomic"
)

// cellShardBits sizes the dense cell table's shards: 512 cells per
// shard, so an exhaustive sweep touches each shard's allocation exactly
// once per 512 points.
const cellShardBits = 9

// denseCellLimit is the largest space whose memo is a dense table. A
// dense table pays a 20 KiB shard for each 512-point region a search
// touches, and a directory entry per region up front; a sparse one
// pays a map entry per cell and a hashed lookup per evaluation.
// Measured on a 2-CPU x86-64 VM at one worker (DESIGN.md, "Dense
// engine hot path"): a 2^18-point exhaustive sweep costs ~0.7 µs per
// point dense and ~2.0 µs sparse, while budgeted searches over a
// 1,536,000-point space allocate 44% less and run ~35% faster sparse.
// A fully touched dense table at the limit holds 10 MiB of cells;
// above it the dense cost grows with the space, not with the search.
const denseCellLimit = 1 << 18

// cellShard is one dense block of memo cells, allocated as a unit.
type cellShard [1 << cellShardBits]onceCell[*Point]

// cellTable is the engine's per-variant memo, keyed by Space.Index.
// Up to denseCellLimit points it is dense and sharded: shards
// materialise lazily under a single CAS, a lookup is two array
// indexings and one atomic load — no key formatting, no hashing, no
// per-variant allocation — and the cells of an exhaustive sweep sit
// contiguously in memory. Above the limit it is sparse: one cell per
// evaluated index in a sync.Map, so memory grows with the cells a
// search touches, never with the space.
type cellTable struct {
	shards []atomic.Pointer[cellShard] // dense; nil when sparse
	sparse sync.Map                    // index int -> *onceCell[*Point]
}

// init sizes the table for a space of size points.
func (t *cellTable) init(size int) {
	if size <= denseCellLimit {
		t.shards = make([]atomic.Pointer[cellShard], (size+len(cellShard{})-1)>>cellShardBits)
	}
}

// cell returns the memo slot of dense index i, creating it on first
// touch. Racing creators agree — through CompareAndSwap on a dense
// shard, through LoadOrStore on a sparse cell — so a cell's identity
// is stable for the table's lifetime (the sync.Once inside depends on
// it).
func (t *cellTable) cell(i int) *onceCell[*Point] {
	if t.shards == nil {
		return loadCell[onceCell[*Point]](&t.sparse, i)
	}
	s := &t.shards[i>>cellShardBits]
	sh := s.Load()
	if sh == nil {
		fresh := new(cellShard)
		if s.CompareAndSwap(nil, fresh) {
			sh = fresh
		} else {
			sh = s.Load()
		}
	}
	return &sh[i&(len(sh)-1)]
}

// flagShardBits sizes the search core's flag-table shards: 512 flags,
// eight words, per shard.
const flagShardBits = 9

type flagShard [1 << flagShardBits / 64]uint64

// flagTable is a per-run set of dense Space.Index values: the search
// core's charged and kept sets. Shards materialise on first set and are
// keyed by shard number in a map, so a budgeted search over a huge
// space pays for the shards it touches, never for the space's size.
// The last shard touched is cached, so a run over consecutive indices
// (an exhaustive sweep) hits the map once per 512 points. The zero
// value is an empty set; it is not safe for concurrent use (the search
// core owns its tables on one goroutine).
type flagTable struct {
	shards  map[int]*flagShard
	last    *flagShard
	lastKey int
}

// shard returns the shard holding flag i, creating it when create is
// set, or nil.
func (t *flagTable) shard(i int, create bool) *flagShard {
	k := i >> flagShardBits
	if t.last != nil && t.lastKey == k {
		return t.last
	}
	sh := t.shards[k]
	if sh == nil {
		if !create {
			return nil
		}
		if t.shards == nil {
			t.shards = map[int]*flagShard{}
		}
		sh = new(flagShard)
		t.shards[k] = sh
	}
	t.last, t.lastKey = sh, k
	return sh
}

// has reports whether flag i is set.
func (t *flagTable) has(i int) bool {
	sh := t.shard(i, false)
	return sh != nil && sh[i>>6&(len(sh)-1)]&(1<<(i&63)) != 0
}

// set sets flag i and reports whether it was already set.
func (t *flagTable) set(i int) bool {
	w := &t.shard(i, true)[i>>6&(len(flagShard{})-1)]
	bit := uint64(1) << (i & 63)
	was := *w&bit != 0
	*w |= bit
	return was
}

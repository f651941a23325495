package dse

import "sync/atomic"

// cellShardBits sizes the cell table's shards: 512 cells per shard
// keeps a sparse search over a huge space from allocating memo slots
// for points it never visits, while an exhaustive sweep touches each
// shard's allocation exactly once per 512 points.
const cellShardBits = 9

// cellShard is one dense block of memo cells, allocated as a unit.
type cellShard [1 << cellShardBits]onceCell[*Point]

// cellTable is the engine's per-variant memo: a dense table over the
// space's Index range, sharded so shards materialise lazily under a
// single CAS. Compared to the former sync.Map of string-keyed cells,
// a lookup is two array indexings and one atomic load — no key
// formatting, no hashing, no per-variant allocation — and the cells
// of an exhaustive sweep sit contiguously in memory.
type cellTable struct {
	shards []atomic.Pointer[cellShard]
}

func newCellTable(size int) *cellTable {
	n := (size + len(cellShard{}) - 1) >> cellShardBits
	return &cellTable{shards: make([]atomic.Pointer[cellShard], n)}
}

// cell returns the memo slot of dense index i, materialising its shard
// on first touch. Racing materialisers agree through CompareAndSwap:
// exactly one shard wins, so a cell's identity is stable for the
// table's lifetime (the sync.Once inside depends on it).
func (t *cellTable) cell(i int) *onceCell[*Point] {
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

package exec

// Allocation-free hash machinery shared by the hashing operators. Keys are
// hashed with relation.Tuple.Hash (FNV-1a over values, no string building)
// and collisions resolve through relation.Tuple.Equal chains, replacing the
// per-row Tuple.Key string the seed executor allocated in joins,
// aggregation, distinct, and set operations.

import "repro/internal/relation"

// valueArena hands out value slices carved from blocks, cutting the
// one-allocation-per-output-row cost of materializing operators. Carved
// tuples follow the package-wide immutability rule, so sharing a backing
// block is safe. Block size follows the operator's expected output (set via
// expect) so small recomputes don't pay for big blocks, capped so wrong
// estimates can't balloon memory. Streaming operators cannot know their
// output size, so each block doubles the last: the zero arena starts at one
// tuple and a retained row never pins more than its own batch's worth.
type valueArena struct {
	buf   []relation.Value
	block int
}

const arenaBlockCap = 4096

// expect sizes future blocks for roughly total values of upcoming demand.
func (a *valueArena) expect(total int) {
	if total < 1 {
		total = 1
	}
	if total > arenaBlockCap {
		total = arenaBlockCap
	}
	a.block = total
}

func (a *valueArena) alloc(n int) relation.Tuple {
	if n == 0 {
		return relation.Tuple{}
	}
	if len(a.buf) < n {
		size := a.block
		if size < n {
			size = n
		}
		a.buf = make([]relation.Value, size)
		if a.block = 2 * size; a.block > arenaBlockCap {
			a.block = arenaBlockCap
		}
	}
	t := relation.Tuple(a.buf[:n:n])
	a.buf = a.buf[n:]
	return t
}

// tupleTable is an insertion-ordered hash set of tuples. Ids are assigned
// sequentially on insert, so when every insertion corresponds to an output
// append (distinct, union) the id doubles as the output row index.
type tupleTable struct {
	buckets map[uint64][]int32
	keys    []relation.Tuple
}

func newTupleTable(capacity int) *tupleTable {
	return &tupleTable{
		buckets: make(map[uint64][]int32, capacity),
		keys:    make([]relation.Tuple, 0, capacity),
	}
}

// lookup returns the id of the tuple's equivalence class, if present.
func (t *tupleTable) lookup(row relation.Tuple) (int, bool) {
	for _, id := range t.buckets[row.Hash()] {
		if t.keys[id].Equal(row) {
			return int(id), true
		}
	}
	return -1, false
}

// getOrInsert returns the id of row's class and whether it was already
// present. Inserted rows are referenced, not copied — callers inserting
// scratch tuples must clone first.
func (t *tupleTable) getOrInsert(row relation.Tuple) (int, bool) {
	h := row.Hash()
	for _, id := range t.buckets[h] {
		if t.keys[id].Equal(row) {
			return int(id), true
		}
	}
	id := int32(len(t.keys))
	t.keys = append(t.keys, row)
	t.buckets[h] = append(t.buckets[h], id)
	return int(id), false
}

// joinTable maps composite join keys to the build-side row indices that bear
// them. Probe-side scratch keys are only cloned when a key is first seen.
type joinTable struct {
	buckets map[uint64][]int32
	keys    []relation.Tuple
	rows    [][]int
	arena   valueArena
}

func newJoinTable(capacity, keyWidth int) *joinTable {
	t := &joinTable{buckets: make(map[uint64][]int32, capacity)}
	t.arena.expect(capacity * keyWidth)
	return t
}

// insert registers rowIdx under key. key may be a reused scratch tuple; it
// is copied into the table's arena only for first-seen keys (the arena sizes
// per-block from actual distinct-key demand).
func (t *joinTable) insert(key relation.Tuple, rowIdx int) {
	h := key.Hash()
	for _, id := range t.buckets[h] {
		if t.keys[id].Equal(key) {
			t.rows[id] = append(t.rows[id], rowIdx)
			return
		}
	}
	kept := t.arena.alloc(len(key))
	copy(kept, key)
	id := int32(len(t.keys))
	t.keys = append(t.keys, kept)
	t.rows = append(t.rows, []int{rowIdx})
	t.buckets[h] = append(t.buckets[h], id)
}

// probe returns the build-side row indices matching key, nil if none.
func (t *joinTable) probe(key relation.Tuple) []int {
	for _, id := range t.buckets[key.Hash()] {
		if t.keys[id].Equal(key) {
			return t.rows[id]
		}
	}
	return nil
}

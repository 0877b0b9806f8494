package exec

// Per-chart data cubes. A crossfilter chart view like
//
//	SELECT s.region, sum(s.revenue), count(*) FROM Sales AS s,
//	  selected_months AS m WHERE s.month = m.month GROUP BY s.region
//
// joins the data ("fact") side against a small selection relation and
// aggregates. The ordinary delta pipeline answers a selection change by
// streaming every joined row of the changed bins — O(rows/bins) per brush
// move. A dCube replaces the join+aggregate pair with index tiles: per
// (brush-bin, output-group) cells of decomposable partials (COUNT/SUM; AVG
// via SUM/COUNT), built once from the fact side. A selection row with join
// key k contributes nothing but a multiplicity for bin k, so any selection's
// aggregate is Σ_bins mult[bin] × cell[bin][group] — O(bins × groups),
// independent of the data size. When the selection is a contiguous range of
// bins with multiplicity one (the brush), per-group prefix-sum arrays answer
// it with two subtractions per output group.
//
// Tiles are maintained, not invalidated: fact-side deltas (writer inserts,
// undo, rollback) update cells exactly like a stateful aggregate keyed by
// (bin, group). Because the aggregate is commutative, the fact and selection
// deltas of one batch may be applied in either order — a selection change
// recomputes totals wholesale from the current cells, which absorbs any
// interleaving.
//
// In a multi-client server the fact side reads only shared base relations,
// so the tiles are bit-identical across sessions: they register in the
// ShareGroup (a sharedCube, next to the sharedSide join states) and N
// sessions brushing the same dimension share one tile build. Sessions keep
// only private state — selection multiplicities, per-group totals, and
// emitted rows — and never mutate shared tiles; the writer advances them
// once per batch under the group write lock.

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
)

// CubeStats counts the data-cube subsystem's work. TileBytes is a gauge
// (bytes currently held by cells and prefix arrays, computed at snapshot
// time); the rest are counters.
type CubeStats struct {
	Builds       int64 // tile constructions: cell scans + prefix-array builds
	Hits         int64 // selection deltas answered from tiles (brush moves)
	Fallbacks    int64 // candidate views defined without a cube path
	TileBytes    int64 // bytes held by tiles attached to this engine's views
	BinsAnswered int64 // output groups served per hit, summed
}

// idTable maps 64-bit keys to dense ids by open addressing (linear probing,
// load at most 3/4, no deletion), at a third of a Go map's cost per lookup.
type idTable struct {
	slots []idSlot
	n     int
}

type idSlot struct {
	key uint64
	id  int32 // id+1; zero marks an empty slot
}

func (t *idTable) slot(k uint64) *idSlot {
	mask := uint64(len(t.slots) - 1)
	h := k * 0x9E3779B97F4A7C15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.id == 0 || s.key == k {
			return s
		}
	}
}

// get returns the id under k, -1 when absent.
func (t *idTable) get(k uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	return t.slot(k).id - 1
}

// put stores id under the absent key k.
func (t *idTable) put(k uint64, id int32) {
	t.n++
	if 4*t.n > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]idSlot, max(8, 2*len(old)))
		for _, s := range old {
			if s.id != 0 {
				*t.slot(s.key) = s
			}
		}
	}
	*t.slot(k) = idSlot{key: k, id: id + 1}
}

// keyDict assigns dense ids to key tuples in first-seen order, under the
// Tuple.Hash/Equal equivalence (Int(3) and Float(3.0) are one key).
type keyDict struct {
	keys []relation.Tuple
	tab  idTable // keyHash (+1 per collision) -> id
}

var dictSeed = maphash.MakeSeed()

// keyHash is Tuple.Hash with shortcuts for one-column keys: an integer is its
// own hash (the table mixes its keys), a string takes the runtime's.
func keyHash(key relation.Tuple) uint64 {
	if len(key) == 1 {
		switch k := key[0].Key(); k.Kind() {
		case relation.KindInt:
			n, _ := k.AsInt()
			return uint64(n)
		case relation.KindString:
			return maphash.String(dictSeed, k.AsString())
		}
	}
	return key.Hash()
}

// id returns the key's id; an unseen key is cloned in under the next id if
// create is set, else reported as -1. Keys with one hash take successive
// table keys: a probe walks h, h+1, … until it meets its key or a gap.
func (d *keyDict) id(key relation.Tuple, create bool) int32 {
	h := keyHash(key)
	for id := d.tab.get(h); id >= 0; id = d.tab.get(h) {
		if sameKey(key, d.keys[id]) {
			return id
		}
		h++
	}
	if !create {
		return -1
	}
	id := int32(len(d.keys))
	d.keys = append(d.keys, key.Clone())
	d.tab.put(h, id)
	return id
}

// sameKey is Tuple.Equal for keys of one width, tried first as plain value
// equality (which fails only for other keys, NaN, and Int against Float).
func sameKey(a, b relation.Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return a.Equal(b)
		}
	}
	return true
}

// cubeTiles is the tile store for one view (or one shared entry): the bin and
// group dictionaries, the cells that exist, and the sorted-bin prefix arrays.
// Private tiles are mutated by their owning pipeline; shared tiles only
// under the group write lock (build, writer advance).
type cubeTiles struct {
	specs    int
	bins     keyDict          // bin (join) key -> bin id
	groups   keyDict          // grouping key -> group id
	reps     []relation.Tuple // group id -> padded join-width representative; outputs only read grouping columns
	cellAt   idTable          // group<<32 | bin -> cell id
	cellRows []int64          // cell id -> unweighted fact-row count
	parts    []aggPart        // cell id*specs + spec -> partial
	factRows int64            // fact rows summarized, NULL-keyed ones included

	// Prefix sums over the sorted bin order, valid when the prefix is clean:
	// entry i of prefix(group, field) sums the field over bins [0, i). All
	// integer — a contiguous all-integer range is answered exactly; ranges
	// containing non-integer sums fall back to the per-bin scan.
	pref        []int64
	sorted      []int32 // bin ids in ascending key order
	pos         []int32 // bin id -> position in sorted
	prefixBuilt bool
	prefixDirty bool  // cells or bins changed since the last prefix build
	builds      int64 // cell scans + prefix builds, drained into CubeStats
}

func newCubeTiles(specs int, globalGroup bool) *cubeTiles {
	t := &cubeTiles{specs: specs, builds: 1} // one build: the cell scan that fills fresh tiles
	if globalGroup {
		// A global aggregate (no GROUP BY) has exactly one group, even over
		// zero rows.
		t.groups.id(nil, true)
		t.reps = append(t.reps, nil)
	}
	return t
}

// cell returns the (group, bin) cell id, creating the cell when asked; -1
// when it does not exist.
func (t *cubeTiles) cell(group, bin int32, create bool) int32 {
	k := uint64(uint32(group))<<32 | uint64(uint32(bin))
	c := t.cellAt.get(k)
	if c < 0 && create {
		c = int32(len(t.cellRows))
		t.cellRows = append(t.cellRows, 0)
		t.parts = append(t.parts, make([]aggPart, t.specs)...)
		t.cellAt.put(k, c)
	}
	return c
}

// approxBytes measures tile memory: cells, their index, the dictionaries,
// the group representatives and the prefix arrays.
func (t *cubeTiles) approxBytes() int64 {
	if t == nil {
		return 0
	}
	const slot, value, part = unsafe.Sizeof(idSlot{}), unsafe.Sizeof(relation.Value{}), unsafe.Sizeof(aggPart{})
	tuples := func(ts []relation.Tuple) uintptr { // of one width
		if len(ts) == 0 {
			return 0
		}
		return uintptr(cap(ts)) * (24 + value*uintptr(len(ts[len(ts)-1])))
	}
	slots := cap(t.cellAt.slots) + cap(t.bins.tab.slots) + cap(t.groups.tab.slots)
	return int64(8*uintptr(cap(t.cellRows)+cap(t.pref)) + part*uintptr(cap(t.parts)) + slot*uintptr(slots) +
		tuples(t.bins.keys) + tuples(t.groups.keys) + tuples(t.reps) + 4*uintptr(cap(t.sorted)+cap(t.pos)))
}

// cellField reads a cell by prefix-array field: its row count, then count,
// sumI and nonInt of each spec.
func (t *cubeTiles) cellField(c, f int) int64 {
	if f == 0 {
		return t.cellRows[c]
	}
	p := &t.parts[c*t.specs+(f-1)/3]
	return [3]int64{p.count, p.sumI, p.nonInt}[(f-1)%3]
}

// prefix returns the prefix-sum array of one field of one group.
func (t *cubeTiles) prefix(group, field int) []int64 {
	n := len(t.sorted) + 1
	return t.pref[(group*(1+3*t.specs)+field)*n:][:n]
}

// ensurePrefix (re)builds the sorted bin order and every group's prefix
// arrays. Private tiles call it lazily on the first selection delta (brush
// begin); shared tiles are built eagerly under the group write lock and
// rebuilt by the writer after each advance.
func (t *cubeTiles) ensurePrefix() {
	if t.prefixBuilt && !t.prefixDirty {
		return
	}
	keys := t.bins.keys
	t.sorted = t.sorted[:0]
	for id := range keys {
		t.sorted = append(t.sorted, int32(id))
	}
	sort.Slice(t.sorted, func(i, j int) bool {
		return relation.CompareTuples(keys[t.sorted[i]], keys[t.sorted[j]]) < 0
	})
	t.pos = slices.Grow(t.pos[:0], len(keys))[:len(keys)]
	for p, id := range t.sorted {
		t.pos[id] = int32(p)
	}
	fields := 1 + 3*t.specs
	need := len(t.reps) * fields * (len(keys) + 1)
	t.pref = slices.Grow(t.pref[:0], need)[:need]
	clear(t.pref)
	for g := range t.reps {
		for i, id := range t.sorted {
			c := int(t.cell(int32(g), id, false))
			for f := 0; f < fields; f++ {
				pr := t.prefix(g, f)
				pr[i+1] = pr[i]
				if c >= 0 {
					pr[i+1] += t.cellField(c, f)
				}
			}
		}
	}
	t.prefixBuilt, t.prefixDirty = true, false
	t.builds++
}

// cubeShape is the compiled geometry a tile maintainer needs, independent of
// any session: the fact-side bin-key evaluators, the aggregate program
// (compiled against the join's concatenated schema), and the padding layout
// that turns a bare fact row into a join-width row for evaluation.
type cubeShape struct {
	prog     *aggProgram
	factKeys []expr.Compiled
	factKRaw []expr.Expr
	width    int // of the join's row
	off      int // where the fact row sits in it
	binCol   int // fact-row column of a bin key that is one bare column, else -1
	grpCol   int // likewise for the grouping key
}

// pad writes the fact row into the join-width scratch tuple (the selection
// half stays NULL — grouping keys and aggregate arguments never read it).
func (cs *cubeShape) pad(scratch, factRow relation.Tuple) relation.Tuple {
	copy(scratch[cs.off:], factRow)
	return scratch
}

// cubeScratch is one folding goroutine's working memory: the ids of the last
// resolved batch, and what expression keys and arguments are evaluated in.
type cubeScratch struct {
	bins, grps     []int32 // per row of the batch, cut from ids; bin -1 for a NULL join key, which never joins
	ids            [2 * foldBlock]int32
	env            expr.Env
	binKey, grpKey relation.Tuple
	padded         relation.Tuple // zero Values are NULL
}

// touch appends the groups of the last batch to list, unless marks shows
// them listed already; untouch empties such a list.
func (sc *cubeScratch) touch(list []int32, marks []bool) ([]int32, []bool) {
	for i, g := range sc.grps {
		if sc.bins[i] < 0 {
			continue
		}
		for int(g) >= len(marks) {
			marks = append(marks, false)
		}
		if !marks[g] {
			marks[g], list = true, append(list, g)
		}
	}
	return list, marks
}

func untouch(list []int32, marks []bool) []int32 {
	for _, g := range list {
		marks[g] = false
	}
	return list[:0]
}

func (cs *cubeShape) newScratch() *cubeScratch {
	return &cubeScratch{
		binKey: make(relation.Tuple, len(cs.factKeys)),
		grpKey: make(relation.Tuple, len(cs.prog.groupBy)),
		padded: make(relation.Tuple, cs.width),
	}
}

// foldBlock bounds a fold batch, so that its three passes stay in cache and
// its ids in the scratch.
const foldBlock = 1024

// resolve maps each fact row of a batch to its bin and group ids, one pass
// per dictionary, into sc.bins and sc.grps. With create, unseen keys take
// the next ids; without (a delete), they are errors.
func (t *cubeTiles) resolve(cs *cubeShape, sc *cubeScratch, rows []relation.Tuple, create bool) error {
	sc.bins, sc.grps = sc.ids[:len(rows)], sc.ids[foldBlock:][:len(rows)]
	for i, row := range rows {
		key, null := sc.binKey, false
		if c := cs.binCol; c >= 0 {
			key = row[c : c+1] // a one-column key is read in place
			null = key[0].IsNull()
		} else {
			var err error
			sc.env.Row = row
			if null, err = evalKeys(cs.factKeys, cs.factKRaw, key, &sc.env); err != nil {
				return err
			}
		}
		sc.bins[i] = -1
		if null {
			continue
		}
		sc.bins[i] = t.bins.id(key, create)
		if sc.bins[i] < 0 {
			return fmt.Errorf("cube tiles: fact row's bin never seen")
		}
	}
	prog := cs.prog
	for i, row := range rows {
		if sc.bins[i] < 0 {
			continue
		}
		key := sc.grpKey
		switch c := cs.grpCol; {
		case len(key) == 0:
			sc.grps[i] = 0 // the global group, created with the tiles
			continue
		case c >= 0:
			key = row[c : c+1]
		default:
			sc.env.Row = cs.pad(sc.padded, row)
			for gi, g := range prog.groupBy {
				if idx := prog.groupCols[gi]; idx >= 0 {
					key[gi] = sc.padded[idx]
					continue
				}
				v, err := g(&sc.env)
				if err != nil {
					return fmt.Errorf("cube group by %s: %w", prog.groupStr[gi], err)
				}
				key[gi] = v
			}
		}
		sc.grps[i] = t.groups.id(key, create)
		if sc.grps[i] < 0 {
			return fmt.Errorf("cube tiles: fact row's group never seen")
		}
		if int(sc.grps[i]) == len(t.reps) { // a new group: the padded row is its representative
			t.reps = append(t.reps, cs.pad(sc.padded, row).Clone())
		}
	}
	return nil
}

// fold is the tile maintenance kernel of priming, writer advance and private
// tiles alike: a batch of fact rows of one sign is resolved to ids (left in
// sc) and accumulated into the cells in place, allocating only for growth.
func (t *cubeTiles) fold(cs *cubeShape, sc *cubeScratch, rows []relation.Tuple, sign int) error {
	t.factRows += int64(sign * len(rows))
	if err := t.resolve(cs, sc, rows, sign > 0); err != nil {
		return err
	}
	specs := cs.prog.specs
	for i, row := range rows {
		if sc.bins[i] < 0 {
			continue
		}
		c := t.cell(sc.grps[i], sc.bins[i], sign > 0)
		if c < 0 {
			return fmt.Errorf("cube tiles: delete for a cell never seen")
		}
		t.cellRows[c] += int64(sign)
		if t.cellRows[c] < 0 {
			return fmt.Errorf("cube tiles: cell row count went negative")
		}
		parts, padded := t.parts[int(c)*t.specs:], false
		for si := range specs {
			if specs[si].arg == nil { // count(*): the row count carries it
				continue
			}
			var v relation.Value
			if col := specs[si].argCol; col >= 0 {
				v = row[col-cs.off]
			} else {
				if !padded {
					sc.env.Row, padded = cs.pad(sc.padded, row), true
				}
				var err error
				if v, err = specs[si].arg(&sc.env); err != nil {
					return fmt.Errorf("cube aggregate %s: %w", specs[si].str, err)
				}
			}
			if !v.IsNull() {
				parts[si].accumulate(v, int64(sign))
			}
		}
		t.prefixDirty = true
	}
	return nil
}

// merge adds the tiles folded from the rows that follow t's own. Keys new to
// t are appended in the partial's first-seen order — the order folding those
// rows into t would have met them in — so merging partials in chunk order
// reproduces the sequential ids and, bit for bit, the integer partials.
func (t *cubeTiles) merge(p *cubeTiles) {
	bins, grps := make([]int32, len(p.bins.keys)), make([]int32, len(p.reps))
	for i, key := range p.bins.keys {
		bins[i] = t.bins.id(key, true)
	}
	for i, key := range p.groups.keys {
		grps[i] = t.groups.id(key, true)
		if int(grps[i]) == len(t.reps) {
			t.reps = append(t.reps, p.reps[i])
		}
	}
	for _, s := range p.cellAt.slots {
		if s.id == 0 {
			continue
		}
		from := int(s.id - 1)
		c := int(t.cell(grps[s.key>>32], bins[uint32(s.key)], true))
		t.cellRows[c] += p.cellRows[from]
		for si := 0; si < t.specs; si++ {
			t.parts[c*t.specs+si].combine(&p.parts[from*t.specs+si], 1)
		}
	}
	t.factRows += p.factRows
	t.prefixDirty = true
}

// eachBatch applies one input batch to the subtree and hands its output to
// each in batches of one sign, at most foldBlock rows long.
func eachBatch(sub dnode, in deltaIn, each func(rows []relation.Tuple, sign int) error) error {
	var rows []relation.Tuple
	var arena valueArena
	last := 0
	flush := func() error {
		batch := rows
		rows = rows[:0]
		if len(batch) == 0 {
			return nil
		}
		return each(batch, last)
	}
	err := sub.apply(in, func(l, r relation.Tuple, sign int) error {
		if len(rows) == foldBlock || sign != last {
			if err := flush(); err != nil {
				return err
			}
		}
		rows, last = append(rows, arena.concat(l, r)), sign
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// cubeChunkRows is the fewest scanned rows a build goroutine is started for
// (PERFORMANCE.md, "Tile build", has the measurement).
const cubeChunkRows = 8192

// primeTiles builds fresh tiles from the fact subtree's priming batch. A scan
// below stateless row operators is cut into contiguous chunks (as many as
// there are processors and rows to pay for them, unless the caller says),
// which to those operators are batches inserting the chunk's rows; each is
// folded into tiles of its own on its own goroutine and the partials are
// merged in chunk order. Every other subtree is one chunk.
func primeTiles(cs *cubeShape, sub dnode, cat plan.Catalog, chunks int) (*cubeTiles, int, error) {
	ins := []deltaIn{{cat: cat}}
	if scan := scanChain(sub); scan != nil {
		src, err := cat.Resolve(scan.s.Name, scan.s.Version)
		if err != nil {
			return nil, 0, err
		}
		rows := src.Rows
		if chunks <= 0 {
			chunks = min(runtime.GOMAXPROCS(0), len(rows)/cubeChunkRows)
		}
		chunks = min(chunks, len(rows))
		if chunks > 1 {
			ins = ins[:0]
			for i := 0; i < chunks; i++ {
				chunk := relation.Delta{Ins: rows[i*len(rows)/chunks : (i+1)*len(rows)/chunks]}
				ins = append(ins, deltaIn{rel: map[string]relation.Delta{strings.ToLower(scan.s.Name): chunk}})
			}
		}
	}
	parts, errs := make([]*cubeTiles, len(ins)), make([]error, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t, sc := newCubeTiles(len(cs.prog.specs), len(cs.prog.groupBy) == 0), cs.newScratch()
			parts[i] = t
			errs[i] = eachBatch(sub, ins[i], func(rows []relation.Tuple, sign int) error { return t.fold(cs, sc, rows, sign) })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		if i > 0 {
			parts[0].merge(parts[i])
		}
	}
	return parts[0], len(parts), nil
}

// scanChain returns the named scan under a chain of filters and projections,
// else nil. Stateless, an Env per apply: goroutines may share such a chain.
func scanChain(d dnode) *dScan {
	switch t := d.(type) {
	case *dScan:
		if t.s.Name != "" {
			return t
		}
	case *dFilter:
		return scanChain(t.child)
	case *dProject:
		return scanChain(t.child)
	}
	return nil
}

// --- the delta operator ---

// cubeTotal is one group's private weighted aggregate: Σ mult[bin] ×
// cell[bin][group], plus the emitted output row for diffing.
type cubeTotal struct {
	rows    int64
	parts   []aggPart
	emitted relation.Tuple
}

// cubeSel is one tile bin the selection reaches, with its multiplicity.
type cubeSel struct {
	bin  int32
	mult int64
}

// dCube is the stateful operator replacing dAggregate(dJoin) for
// cube-eligible views. The fact subtree feeds the tiles; the selection
// subtree feeds only the bin multiplicities.
type dCube struct {
	shape   cubeShape
	fact    dnode // fact subtree; only driven here when the tiles are private
	sel     dnode
	selKeys []expr.Compiled
	selKRaw []expr.Expr

	// Shared tiles (multi-client serving): when fp is non-empty the tiles
	// live in the group registry; priming attaches (building on first use,
	// donating the fact subtree as the writer's canonical feeder), apply
	// only re-derives private totals, and reset keeps the attachment.
	group *ShareGroup
	fp    string
	reads []string
	sc    *sharedCube

	tiles *cubeTiles // private tiles; nil when shared (use curTiles)

	// The selection: its join keys (in their own dictionary: a session may
	// not add to shared tiles, and a selected key need not be a bin yet),
	// their multiplicities by id, and the tile bins they currently reach.
	selBins  keyDict
	mult     []int64
	selected []cubeSel

	totals  []cubeTotal // indexed by group id, grown on demand
	marks   []bool      // by group id: scratch for listing a batch's groups once each
	all     []int32     // 0, 1, 2, …: every group id
	aggs    []relation.Value
	env     expr.Env
	scratch *cubeScratch
	stats   CubeStats
}

// curTiles is the current tile store: the shared entry's, or the private one.
func (d *dCube) curTiles() *cubeTiles {
	if d.sc != nil {
		return d.sc.tiles
	}
	return d.tiles
}

// attachShared binds to the group's cube entry, building and publishing the
// tiles on first use. Caller holds the group write lock (via RunStateful).
func (d *dCube) attachShared(ex *Executor) error {
	if d.sc != nil {
		return nil
	}
	sc := d.group.lookupCube(d.fp, d.reads)
	if sc.built {
		d.group.stats.Reuses++
	} else {
		sc.sub = d.fact
		sc.shape = d.shape
		if err := sc.build(d.group, ex); err != nil {
			return err
		}
		d.group.stats.Builds++
		d.stats.Builds += sc.tiles.takeBuilds()
	}
	sc.refs++
	d.sc = sc
	return nil
}

// releaseShared drops the cube's shared-tile reference (session detach).
func (d *dCube) releaseShared(g *ShareGroup) {
	if d.sc != nil {
		g.releaseCube(d.sc)
		d.sc = nil
	}
}

// apply folds the fact-side change into the tiles (private ones; the writer
// already folded it into shared ones and cached it), the selection-side
// change into the bin multiplicities, and re-derives from the tiles the total
// of every group a fact row touched — after a selection change or priming,
// of every group: O(bins × groups). Totals are a function of the current
// tiles and selection, never accumulated beside them, so the order of the
// two sides within a batch does not matter, and a pipeline primed inside a
// writer's fan-out window may take the batch's touched groups like any
// other. Groups whose output row changed ship a delete and an insert.
func (d *dCube) apply(in deltaIn, sink deltaSink) error {
	var err error
	var touched []int32 // groups the fact side changed cells of
	switch {
	case d.fp != "":
		touched = d.sc.touched // the writer folded the batch into the shared tiles and noted them
	case in.priming():
		d.tiles, _, err = primeTiles(&d.shape, d.fact, in.cat, 0)
	default:
		if d.scratch == nil { // shared tiles never come here: their sessions carry no scratch
			d.scratch = d.shape.newScratch()
		}
		err = eachBatch(d.fact, in, func(rows []relation.Tuple, sign int) error {
			err := d.tiles.fold(&d.shape, d.scratch, rows, sign)
			touched, d.marks = d.scratch.touch(touched, d.marks)
			return err
		})
		untouch(touched, d.marks)
	}
	if err != nil {
		return err
	}
	t := d.curTiles()
	selChanged := in.priming()
	env := &d.env
	var whole relation.Tuple
	key := make(relation.Tuple, len(d.selKeys))
	err = d.sel.apply(in, func(l, r relation.Tuple, sign int) error {
		env.Row = l
		if r != nil {
			whole = concatInto(whole, l, r)
			env.Row = whole
		}
		null, err := evalKeys(d.selKeys, d.selKRaw, key, env)
		if err != nil || null {
			return err // NULL keys never join
		}
		selChanged = true
		id := d.selBins.id(key, true)
		if int(id) == len(d.mult) {
			d.mult = append(d.mult, 0)
		}
		d.mult[id] += int64(sign)
		if d.mult[id] < 0 {
			return fmt.Errorf("cube selection: multiplicity went negative")
		}
		return nil
	})
	if err != nil {
		return err
	}
	for len(d.totals) < len(t.reps) {
		d.totals = append(d.totals, cubeTotal{parts: make([]aggPart, t.specs)})
	}
	if selChanged {
		if !in.priming() {
			// Private tiles build their prefix arrays lazily, at the first
			// selection change (brush begin); shared ones are kept ready.
			if d.fp == "" {
				t.ensurePrefix()
			}
			d.stats.Hits++
			d.stats.BinsAnswered += int64(len(t.reps))
		}
		for len(d.all) < len(t.reps) {
			d.all = append(d.all, int32(len(d.all)))
		}
		touched = d.all[:len(t.reps)]
	}
	if d.fp == "" {
		d.stats.Builds += t.takeBuilds()
	}
	if len(touched) == 0 {
		return nil
	}
	d.selected = d.selected[:0]
	live := 0
	for id, key := range d.selBins.keys {
		if d.mult[id] == 0 {
			continue
		}
		live++
		// Selected keys absent from the tiles hold no data.
		if bin := t.bins.id(key, false); bin >= 0 {
			d.selected = append(d.selected, cubeSel{bin: bin, mult: d.mult[id]})
		}
	}
	if len(d.mult) > 2*live+64 { // mostly keys since deselected: forget them, or the dictionary grows with the session
		var kept keyDict
		for id, key := range d.selBins.keys {
			if d.mult[id] != 0 {
				d.mult[kept.id(key, true)] = d.mult[id] // an id only ever shrinks
			}
		}
		d.selBins, d.mult = kept, d.mult[:live]
	}
	usePrefix, lo, hi := d.selRange(t)
	for _, gi := range touched {
		tot := &d.totals[gi]
		if !usePrefix || !d.totalFromPrefix(t, int(gi), tot, lo, hi) {
			d.totalFromScan(t, gi, tot)
		}
		row, err := d.outputGroup(env, t, int(gi))
		if err != nil {
			return err
		}
		if err := reemit(sink, &tot.emitted, row); err != nil {
			return err
		}
	}
	return nil
}

// selRange reports whether the current selection maps to a contiguous range
// [lo, hi] of sorted bin positions with multiplicity 1 everywhere — the
// selections the prefix arrays answer with two subtractions per group.
func (d *dCube) selRange(t *cubeTiles) (bool, int, int) {
	if !t.prefixBuilt || t.prefixDirty || len(d.selected) == 0 {
		return false, 0, 0
	}
	lo, hi := len(t.sorted), -1
	for _, s := range d.selected {
		if s.mult != 1 {
			return false, 0, 0
		}
		p := int(t.pos[s.bin])
		lo, hi = min(lo, p), max(hi, p)
	}
	return hi-lo+1 == len(d.selected), lo, hi
}

// totalFromPrefix answers one group from its prefix arrays. Returns false
// when the range contains non-integer sums (the compensated float total
// cannot be recovered by subtraction; the per-bin scan handles it exactly).
func (d *dCube) totalFromPrefix(t *cubeTiles, g int, tot *cubeTotal, lo, hi int) bool {
	for s := range tot.parts {
		if nonInt := t.prefix(g, 3+3*s); nonInt[hi+1]-nonInt[lo] != 0 {
			return false
		}
	}
	rows := t.prefix(g, 0)
	tot.rows = rows[hi+1] - rows[lo]
	for s := range tot.parts {
		count, sumI := t.prefix(g, 1+3*s), t.prefix(g, 2+3*s)
		n := sumI[hi+1] - sumI[lo]
		// All-integer range: the exact float sum is the integer sum.
		tot.parts[s] = aggPart{count: count[hi+1] - count[lo], sumI: n, sumF: float64(n)}
	}
	return true
}

// totalFromScan sums one group's selected cells, bin by bin.
func (d *dCube) totalFromScan(t *cubeTiles, g int32, tot *cubeTotal) {
	tot.rows = 0
	for s := range tot.parts {
		tot.parts[s] = aggPart{}
	}
	for _, sel := range d.selected {
		c := t.cell(g, sel.bin, false)
		if c < 0 {
			continue
		}
		tot.rows += sel.mult * t.cellRows[c]
		for s := range tot.parts {
			tot.parts[s].combine(&t.parts[int(c)*t.specs+s], sel.mult)
		}
	}
}

// outputGroup computes the group's current output row (nil when HAVING drops
// it, or when a keyed group has no selected rows — the group is simply not in
// the output, exactly as dAggregate drops empty groups).
func (d *dCube) outputGroup(env *expr.Env, t *cubeTiles, gi int) (relation.Tuple, error) {
	prog := d.shape.prog
	tot := &d.totals[gi]
	if tot.rows == 0 && len(prog.groupBy) > 0 {
		return nil, nil
	}
	env.Row = t.reps[gi]
	if tot.rows == 0 {
		env.Row = nil // global group over zero rows: columns read as NULL
	}
	for si := range prog.specs {
		sp := &prog.specs[si]
		d.aggs[si] = tot.parts[si].result(sp.agg.Name, tot.rows, sp.agg.Arg == nil)
	}
	env.Aggs = d.aggs
	defer func() { env.Aggs = nil }()
	if prog.having != nil {
		hv, err := prog.having(env)
		if err != nil {
			return nil, fmt.Errorf("having: %w", err)
		}
		if hv.IsNull() || !hv.Truthy() {
			return nil, nil
		}
	}
	row := make(relation.Tuple, len(prog.items))
	for c, it := range prog.items {
		v, err := it(env)
		if err != nil {
			return nil, fmt.Errorf("cube output %s: %w", prog.itemStr[c], err)
		}
		row[c] = v
	}
	return row, nil
}

func (d *dCube) reset() {
	d.selBins, d.mult, d.totals, d.marks = keyDict{}, nil, nil, nil
	if d.fp == "" {
		d.tiles = nil
		d.fact.reset()
	}
	// Shared attachments (and the donated fact subtree) survive resets, like
	// dJoin's shared sides: the tiles track shared base data, which a
	// session-local reset says nothing about.
	d.sel.reset()
}

// tileBytes reports private tile memory (the group accounts for shared tiles).
func (d *dCube) tileBytes() int64 { return d.tiles.approxBytes() }

// takeBuilds drains the tiles' build counter.
func (t *cubeTiles) takeBuilds() (n int64) {
	n, t.builds = t.builds, 0
	return n
}

// --- build-time wiring ---

// buildCube attempts the index-tile rewrite for an Aggregate directly over a
// pure equi-join whose grouping keys and aggregate arguments all read one
// side. Returns false (and the caller builds the ordinary dAggregate/dJoin
// pair) for every other shape.
func (db *deltaBuilder) buildCube(t *bAggregate) (dnode, bool) {
	if t.static == nil {
		return nil, false
	}
	j, ok := t.child.(*bJoin)
	if !ok {
		return nil, false
	}
	info := plan.CubeEligibility(t.a)
	if !info.OK {
		return nil, false
	}
	var factB, selB bnode
	var factKeys, selKeys []expr.Compiled
	var factKRaw, selKRaw []expr.Expr
	fw, sw := j.lw, j.rw
	if info.FactLeft {
		factB, selB = j.l, j.r
		factKeys, selKeys = j.lks, j.rks
		factKRaw, selKRaw = j.lkRaw, j.rkRaw
	} else {
		factB, selB = j.r, j.l
		factKeys, selKeys = j.rks, j.lks
		factKRaw, selKRaw = j.rkRaw, j.lkRaw
		fw, sw = j.rw, j.lw
	}
	fact, ok := db.build(factB)
	if !ok {
		return nil, false
	}
	sel, ok := db.build(selB)
	if !ok {
		return nil, false
	}
	dc := &dCube{
		shape: cubeShape{
			prog:     t.static,
			factKeys: factKeys,
			factKRaw: factKRaw,
			width:    fw + sw,
			binCol:   -1,
			grpCol:   -1,
		},
		fact:    fact,
		sel:     sel,
		selKeys: selKeys,
		selKRaw: selKRaw,
		aggs:    make([]relation.Value, len(t.static.specs)),
	}
	// A key that is one bare column is read from the fact row by index.
	cs := &dc.shape
	if !info.FactLeft {
		cs.off = sw
	}
	if len(factKRaw) == 1 {
		cs.binCol = bareColumn(factKRaw[0], relation.Schema{Cols: j.outSchema.Cols[cs.off : cs.off+fw]})
	}
	if cols := t.static.groupCols; len(cols) == 1 && cols[0] >= 0 {
		cs.grpCol = cols[0] - cs.off
	}
	// Shared tiles: the fact subtree reads only shared relations, so the
	// cells are identical across sessions and register in the group. The
	// donated subtree must not itself attach to shared join sides (the outer
	// entry subsumes them; see clearSharedMarks).
	if fp, reads, ok := sideEligible(db.group, factB); ok {
		db.clearSharedMarks(fact)
		dc.group, dc.reads = db.group, reads
		dc.fp = fp + sideKey(factKRaw, true) + "|cube:" + cubeProgramFP(t, info.FactLeft, fw, sw)
		db.sharedCubes = append(db.sharedCubes, dc)
	}
	db.cubes = append(db.cubes, dc)
	return dc, true
}

// cubeProgramFP renders the aggregate program and padding geometry into the
// sharing key: tiles are reusable only across pipelines whose cells carry
// the same partials evaluated against the same join layout.
func cubeProgramFP(t *bAggregate, factLeft bool, fw, sw int) string {
	p := t.static
	hav := "<nil>"
	if t.a.Having != nil {
		hav = t.a.Having.String()
	}
	var specs []string
	for i := range p.specs {
		specs = append(specs, p.specs[i].str)
	}
	return fmt.Sprintf("agg[%s;%s;%s;%s;left=%t;%d+%d]",
		strings.Join(p.groupStr, ","), strings.Join(specs, ","), strings.Join(p.itemStr, ","), hav, factLeft, fw, sw)
}

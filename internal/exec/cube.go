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
	"math"
	"sort"

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

// cubePart accumulates one aggregate argument over one tile cell (or one
// weighted total). It mirrors aggState's SUM/COUNT/AVG bookkeeping exactly —
// Neumaier-compensated float sum, exact integer sum with a non-integer
// counter — so composing cells reproduces the delta pipeline's results
// bit-for-bit on integer data.
type cubePart struct {
	count  int64
	sumF   float64
	sumC   float64
	sumI   int64
	nonInt int64
}

func (p *cubePart) addFloat(f float64) {
	t := p.sumF + f
	if math.Abs(p.sumF) >= math.Abs(f) {
		p.sumC += (p.sumF - t) + f
	} else {
		p.sumC += (f - t) + p.sumF
	}
	p.sumF = t
}

// accumulate folds one argument value with a signed weight (a bin
// multiplicity, or ±1 for cell maintenance).
func (p *cubePart) accumulate(v relation.Value, w int64) {
	if v.IsNull() {
		return
	}
	p.count += w
	if f, ok := v.AsFloat(); ok {
		p.addFloat(float64(w) * f)
		if v.Kind() == relation.KindInt {
			n, _ := v.AsInt()
			p.sumI += w * n
		} else {
			p.nonInt += w
		}
	} else {
		p.nonInt += w
	}
	if p.count == 0 {
		// Exact reset, as aggState does for emptied groups: the true sums are
		// zero, so clear any residual float error.
		*p = cubePart{}
	}
}

// combine folds another partial in with a multiplicity.
func (p *cubePart) combine(o *cubePart, w int64) {
	p.count += w * o.count
	p.sumI += w * o.sumI
	p.nonInt += w * o.nonInt
	p.addFloat(float64(w) * (o.sumF + o.sumC))
}

// result mirrors aggState.result for the decomposable calls.
func (p *cubePart) result(name string, rowsInGroup int64, star bool) relation.Value {
	switch name {
	case "count":
		if star {
			return relation.Int(rowsInGroup)
		}
		return relation.Int(p.count)
	case "sum":
		if p.count == 0 {
			return relation.Null()
		}
		if p.nonInt == 0 {
			return relation.Int(p.sumI)
		}
		return relation.Float(p.sumF + p.sumC)
	case "avg":
		if p.count == 0 {
			return relation.Null()
		}
		return relation.Float((p.sumF + p.sumC) / float64(p.count))
	default:
		return relation.Null()
	}
}

// cubeCell is one (bin, group) tile cell: unweighted fact-row count plus one
// partial per aggregate spec.
type cubeCell struct {
	rows  int64
	parts []cubePart
}

// cubeGroup is one output group's slice of the tiles: its cells across bins,
// plus optional prefix-sum arrays over the sorted bin order.
type cubeGroup struct {
	key   relation.Tuple // grouping key values (nil for the global group)
	rep   relation.Tuple // padded join-width representative; outputs only read grouping columns
	cells map[int32]*cubeCell

	// Prefix arrays, index i = sum over sorted bins [0, i). Valid when the
	// owning tiles' prefix is clean. All integer — a contiguous all-integer
	// range is answered exactly; ranges containing non-integer sums fall back
	// to the per-bin scan.
	prefRows   []int64
	prefCount  [][]int64 // per spec
	prefSumI   [][]int64
	prefNonInt [][]int64
}

// cubeTiles is the tile store for one view (or one shared entry): the bin
// registry, the output groups with their cells, and the sorted-bin prefix
// state. Private tiles are mutated by their owning pipeline; shared tiles
// only under the group write lock (build, writer advance).
type cubeTiles struct {
	specs    int
	bins     map[string]int32 // bin key (Tuple.Key) -> bin id
	binKeys  []relation.Tuple // bin id -> key tuple
	groups   []*cubeGroup
	groupIdx map[uint64][]int32

	sorted      []int32 // bin ids in ascending key order
	pos         []int32 // bin id -> position in sorted
	prefixBuilt bool
	prefixDirty bool // cells or bins changed since the last prefix build
	cellCount   int64
	builds      int64 // cell scans + prefix builds, drained into CubeStats
}

func newCubeTiles(specs int, globalGroup bool) *cubeTiles {
	t := &cubeTiles{
		specs:    specs,
		bins:     make(map[string]int32),
		groupIdx: make(map[uint64][]int32),
		builds:   1, // the cell scan that fills fresh tiles (their priming)
	}
	if globalGroup {
		// A global aggregate (no GROUP BY) always has exactly one group, even
		// over zero rows.
		t.newGroup(relation.Tuple(nil).Hash(), nil, nil)
	}
	return t
}

func (t *cubeTiles) binID(kstr string, key relation.Tuple) int32 {
	if id, ok := t.bins[kstr]; ok {
		return id
	}
	id := int32(len(t.binKeys))
	t.bins[kstr] = id
	t.binKeys = append(t.binKeys, key.Clone())
	t.prefixDirty = true
	return id
}

func (t *cubeTiles) newGroup(h uint64, key, rep relation.Tuple) int32 {
	g := &cubeGroup{cells: make(map[int32]*cubeCell)}
	if key != nil {
		g.key = key.Clone()
	}
	g.rep = rep
	id := int32(len(t.groups))
	t.groups = append(t.groups, g)
	t.groupIdx[h] = append(t.groupIdx[h], id)
	return id
}

func (t *cubeTiles) findGroup(h uint64, key relation.Tuple) int32 {
	for _, id := range t.groupIdx[h] {
		if t.groups[id].key.Equal(key) {
			return id
		}
	}
	return -1
}

// cell returns the (bin, group) cell, creating it when asked.
func (t *cubeTiles) cell(g *cubeGroup, bin int32, create bool) *cubeCell {
	c := g.cells[bin]
	if c == nil && create {
		c = &cubeCell{parts: make([]cubePart, t.specs)}
		g.cells[bin] = c
		t.cellCount++
	}
	return c
}

// approxBytes estimates tile memory: cells (struct + partials) plus bin keys
// and prefix arrays.
func (t *cubeTiles) approxBytes() int64 {
	if t == nil {
		return 0
	}
	b := t.cellCount * int64(24+48*t.specs+16) // cell + parts + map slot
	b += int64(len(t.binKeys)) * 48
	if t.prefixBuilt {
		b += int64(len(t.groups)) * int64(len(t.sorted)+1) * int64(8*(1+3*t.specs))
	}
	return b
}

// ensurePrefix (re)builds the sorted bin order and every group's prefix
// arrays. Private tiles call it lazily on the first selection delta (brush
// begin); shared tiles are built eagerly under the group write lock and
// rebuilt by the writer after each advance.
func (t *cubeTiles) ensurePrefix() {
	if t.prefixBuilt && !t.prefixDirty {
		return
	}
	t.sorted = t.sorted[:0]
	for id := range t.binKeys {
		t.sorted = append(t.sorted, int32(id))
	}
	sort.Slice(t.sorted, func(i, j int) bool {
		return relation.CompareTuples(t.binKeys[t.sorted[i]], t.binKeys[t.sorted[j]]) < 0
	})
	if cap(t.pos) < len(t.binKeys) {
		t.pos = make([]int32, len(t.binKeys))
	}
	t.pos = t.pos[:len(t.binKeys)]
	for p, id := range t.sorted {
		t.pos[id] = int32(p)
	}
	n := len(t.sorted) + 1
	for _, g := range t.groups {
		g.prefRows = resizeInt64(g.prefRows, n)
		g.prefCount = resizeInt64s(g.prefCount, t.specs, n)
		g.prefSumI = resizeInt64s(g.prefSumI, t.specs, n)
		g.prefNonInt = resizeInt64s(g.prefNonInt, t.specs, n)
		for i, id := range t.sorted {
			rows, parts := int64(0), ([]cubePart)(nil)
			if c := g.cells[id]; c != nil {
				rows, parts = c.rows, c.parts
			}
			g.prefRows[i+1] = g.prefRows[i] + rows
			for s := 0; s < t.specs; s++ {
				var p cubePart
				if parts != nil {
					p = parts[s]
				}
				g.prefCount[s][i+1] = g.prefCount[s][i] + p.count
				g.prefSumI[s][i+1] = g.prefSumI[s][i] + p.sumI
				g.prefNonInt[s][i+1] = g.prefNonInt[s][i] + p.nonInt
			}
		}
	}
	t.prefixBuilt, t.prefixDirty = true, false
	t.builds++
}

func resizeInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	s[0] = 0
	return s
}

func resizeInt64s(s [][]int64, specs, n int) [][]int64 {
	if len(s) < specs {
		s = make([][]int64, specs)
	}
	for i := range s {
		s[i] = resizeInt64(s[i], n)
	}
	return s
}

// cubeShape is the compiled geometry a tile maintainer needs, independent of
// any session: the fact-side bin-key evaluators, the aggregate program
// (compiled against the join's concatenated schema), and the padding layout
// that turns a bare fact row into a join-width row for evaluation.
type cubeShape struct {
	prog     *aggProgram
	factKeys []expr.Compiled
	factKRaw []expr.Expr
	factLeft bool
	fw, sw   int // fact-side and selection-side widths
}

// pad writes the fact row into the join-width scratch tuple (the selection
// half stays NULL — grouping keys and aggregate arguments never read it).
func (cs *cubeShape) pad(scratch, factRow relation.Tuple) relation.Tuple {
	if cs.factLeft {
		copy(scratch[:cs.fw], factRow)
	} else {
		copy(scratch[cs.sw:], factRow)
	}
	return scratch
}

func (cs *cubeShape) newScratch() relation.Tuple {
	return make(relation.Tuple, cs.fw+cs.sw) // zero Values are NULL
}

// applyFactRow folds one fact row into the tiles with the given sign,
// returning the row's bin and group ids (-1 bin for NULL join keys, which
// never join). Creates bins, groups, and cells as needed.
func (t *cubeTiles) applyFactRow(cs *cubeShape, env *expr.Env, binKey, scratch relation.Tuple, row relation.Tuple, sign int) (bin, group int32, err error) {
	env.Row = row
	null, err := evalKeys(cs.factKeys, cs.factKRaw, binKey, env)
	if err != nil {
		return -1, -1, err
	}
	if null {
		return -1, -1, nil
	}
	bin = t.binID(binKey.Key(), binKey)
	group, err = t.locateGroup(cs, env, scratch, row, sign)
	if err != nil {
		return -1, -1, err
	}
	g := t.groups[group]
	c := t.cell(g, bin, sign > 0)
	if c == nil {
		return -1, -1, fmt.Errorf("cube tiles: delete for a cell never seen")
	}
	c.rows += int64(sign)
	if c.rows < 0 {
		return -1, -1, fmt.Errorf("cube tiles: cell row count went negative")
	}
	for si := range cs.prog.specs {
		sp := &cs.prog.specs[si]
		if sp.arg == nil { // count(*): rows carries it
			continue
		}
		var v relation.Value
		if sp.argCol >= 0 {
			v = env.Row[sp.argCol] // locateGroup left env.Row on the padded row
		} else {
			var err error
			if v, err = sp.arg(env); err != nil {
				return -1, -1, fmt.Errorf("cube aggregate %s: %w", sp.str, err)
			}
		}
		c.parts[si].accumulate(v, int64(sign))
	}
	t.prefixDirty = true
	return bin, group, nil
}

// locateGroup evaluates the grouping key against the padded row and returns
// the group id, creating the group (with the padded row as representative)
// on first sight of an inserted row. env.Row is left on the padded row so
// the caller can evaluate aggregate arguments.
func (t *cubeTiles) locateGroup(cs *cubeShape, env *expr.Env, scratch relation.Tuple, row relation.Tuple, sign int) (int32, error) {
	id, h, key, err := t.groupKeyOf(cs, env, scratch, row)
	if err != nil {
		return -1, err
	}
	if id < 0 {
		if sign < 0 {
			return -1, fmt.Errorf("cube tiles: delete for a group never seen")
		}
		id = t.newGroup(h, key, scratch.Clone())
	}
	return id, nil
}

// findGroupFor is locateGroup without the mutation: sessions reading shared
// tiles (which the writer already advanced) use it under the group read lock.
func (t *cubeTiles) findGroupFor(cs *cubeShape, env *expr.Env, scratch relation.Tuple, row relation.Tuple) (int32, error) {
	id, _, _, err := t.groupKeyOf(cs, env, scratch, row)
	if err != nil {
		return -1, err
	}
	if id < 0 {
		return -1, fmt.Errorf("cube tiles: fact row's group missing from shared tiles")
	}
	return id, nil
}

func (t *cubeTiles) groupKeyOf(cs *cubeShape, env *expr.Env, scratch relation.Tuple, row relation.Tuple) (int32, uint64, relation.Tuple, error) {
	prog := cs.prog
	env.Row = cs.pad(scratch, row)
	if len(prog.groupBy) == 0 {
		return 0, 0, nil, nil // the global group, created with the tiles
	}
	key := make(relation.Tuple, len(prog.groupBy))
	for gi, g := range prog.groupBy {
		if idx := prog.groupCols[gi]; idx >= 0 {
			key[gi] = env.Row[idx]
			continue
		}
		v, err := g(env)
		if err != nil {
			return -1, 0, nil, fmt.Errorf("cube group by %s: %w", prog.groupStr[gi], err)
		}
		key[gi] = v
	}
	h := key.Hash()
	return t.findGroup(h, key), h, key, nil
}

// --- the delta operator ---

// cubeTotal is one group's private weighted aggregate: Σ mult[bin] ×
// cell[bin][group], plus the emitted output row for diffing.
type cubeTotal struct {
	rows    int64
	parts   []cubePart
	emitted relation.Tuple
	touched bool
}

// dCube is the stateful operator replacing dAggregate(dJoin) for
// cube-eligible views. The fact subtree feeds the tiles; the selection
// subtree feeds only the bin multiplicities.
type dCube struct {
	b       *bAggregate
	shape   cubeShape
	fact    dnode // fact subtree; only driven here when the tiles are private
	sel     dnode
	selKeys []expr.Compiled
	selKRaw []expr.Expr

	// Shared tiles (multi-client serving): when fp is non-empty the tiles
	// live in the group registry; priming attaches (building on first use,
	// donating the fact subtree as the writer's canonical feeder), apply
	// consumes the writer's cached fact delta and adjusts only private
	// totals, and reset keeps the attachment.
	group *ShareGroup
	fp    string
	reads []string
	sc    *sharedCube

	tiles *cubeTiles // private tiles; nil when shared (use curTiles)

	mult    map[string]int64 // bin key -> selection multiplicity
	totals  []cubeTotal      // indexed by group id, grown on demand
	aggs    []relation.Value
	binKey  relation.Tuple
	scratch relation.Tuple
	stats   CubeStats
}

func (d *dCube) prog() *aggProgram { return d.b.static }

// curTiles resolves the current tile store: the (possibly rebuilt) shared
// entry's, or the private one.
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
		sc.global = len(d.prog().groupBy) == 0
		if err := sc.build(ex); err != nil {
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

func (d *dCube) growTotals(t *cubeTiles) {
	for len(d.totals) < len(t.groups) {
		d.totals = append(d.totals, cubeTotal{parts: make([]cubePart, t.specs)})
	}
}

// apply folds the fact-side change into the tiles (private ones; the writer
// already folded it into shared ones and cached it) and into the touched
// groups' totals, then the selection-side change into the bin
// multiplicities. A selection change — and priming, which starts the
// selection — re-derives every group's total from the tiles, O(bins ×
// groups), which also absorbs any fact rows applied first: that is why a
// pipeline primed inside a writer's fan-out window may consume the cached
// fact delta like any other batch. Groups whose output row changed ship a
// delete and an insert.
func (d *dCube) apply(in deltaIn, sink deltaSink) error {
	prog := d.prog()
	if d.mult == nil {
		d.mult = make(map[string]int64)
		d.binKey = make(relation.Tuple, len(d.shape.factKeys))
		d.scratch = d.shape.newScratch()
		d.aggs = make([]relation.Value, len(prog.specs))
		if d.fp == "" {
			d.tiles = newCubeTiles(len(prog.specs), len(prog.groupBy) == 0)
		}
	}
	t := d.curTiles()
	env := &expr.Env{}
	var touched []int32
	factRow := func(row relation.Tuple, sign int) error {
		var gi int32
		var m int64
		if d.fp != "" {
			// The writer already folded this row into the shared tiles;
			// locate its bin and group without mutating them.
			env.Row = row
			null, err := evalKeys(d.shape.factKeys, d.shape.factKRaw, d.binKey, env)
			if err != nil || null {
				return err
			}
			if m = d.mult[d.binKey.Key()]; m == 0 {
				return nil // bin not selected: totals unaffected
			}
			if gi, err = t.findGroupFor(&d.shape, env, d.scratch, row); err != nil {
				return err
			}
		} else {
			bin, g, err := t.applyFactRow(&d.shape, env, d.binKey, d.scratch, row, sign)
			if err != nil || bin < 0 || len(d.mult) == 0 {
				return err
			}
			if gi, m = g, d.mult[t.binKeys[bin].Key()]; m == 0 {
				return nil
			}
		}
		d.growTotals(t)
		tot := &d.totals[gi]
		if !tot.touched {
			tot.touched = true
			touched = append(touched, gi)
		}
		tot.rows += int64(sign) * m
		// env.Row is the padded join-width row (locateGroup left it).
		for si := range prog.specs {
			sp := &prog.specs[si]
			if sp.arg == nil {
				continue
			}
			v, err := sp.arg(env)
			if err != nil {
				return fmt.Errorf("cube aggregate %s: %w", sp.str, err)
			}
			tot.parts[si].accumulate(v, int64(sign)*m)
		}
		return nil
	}
	var err error
	var whole relation.Tuple
	if d.fp == "" {
		err = d.fact.apply(in, func(l, r relation.Tuple, sign int) error {
			if r != nil {
				whole = concatInto(whole, l, r)
				l = whole
			}
			return factRow(l, sign)
		})
		d.stats.Builds += t.takeBuilds()
	} else {
		err = eachSigned(d.sc.currentDelta(), factRow)
	}
	if err != nil {
		return err
	}

	selChanged := in.priming()
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
		k := key.Key()
		switch n := d.mult[k] + int64(sign); {
		case n < 0:
			return fmt.Errorf("cube selection: multiplicity went negative")
		case n == 0:
			delete(d.mult, k)
		default:
			d.mult[k] = n
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.growTotals(t)
	if selChanged {
		if !in.priming() {
			// Private tiles build their prefix arrays lazily, at the first
			// selection change (brush begin); shared ones are kept ready.
			if d.fp == "" {
				t.ensurePrefix()
				d.stats.Builds += t.takeBuilds()
			}
			d.stats.Hits++
			d.stats.BinsAnswered += int64(len(t.groups))
		}
		d.recomputeTotals(t)
		touched = touched[:0]
		for gi := range t.groups {
			touched = append(touched, int32(gi))
		}
	}
	for _, gi := range touched {
		tot := &d.totals[gi]
		tot.touched = false
		if tot.rows < 0 {
			return fmt.Errorf("cube totals: group row count went negative")
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

// recomputeTotals re-derives every group's weighted total from the tiles:
// through the prefix arrays when the selection is a contiguous multiplicity-1
// bin range (two subtractions per group), per selected bin otherwise.
func (d *dCube) recomputeTotals(t *cubeTiles) {
	usePrefix, lo, hi := d.selRange(t)
	for gi := range t.groups {
		tot := &d.totals[gi]
		if usePrefix && d.totalFromPrefix(t.groups[gi], tot, lo, hi) {
			continue
		}
		d.totalFromScan(t, t.groups[gi], tot)
	}
}

// selRange reports whether the current selection maps to a contiguous range
// [lo, hi] of sorted bin positions with multiplicity 1 everywhere (selected
// bins absent from the tiles hold no data and are ignored).
func (d *dCube) selRange(t *cubeTiles) (bool, int, int) {
	if !t.prefixBuilt || t.prefixDirty {
		return false, 0, 0
	}
	lo, hi, cnt := len(t.sorted), -1, 0
	for kstr, m := range d.mult {
		if m != 1 {
			return false, 0, 0
		}
		id, ok := t.bins[kstr]
		if !ok {
			continue
		}
		p := int(t.pos[id])
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
		cnt++
	}
	if cnt == 0 || hi-lo+1 != cnt {
		return false, 0, 0
	}
	return true, lo, hi
}

// totalFromPrefix answers one group from its prefix arrays. Returns false
// when the range contains non-integer sums (the compensated float total
// cannot be recovered by subtraction; the per-bin scan handles it exactly).
func (d *dCube) totalFromPrefix(g *cubeGroup, tot *cubeTotal, lo, hi int) bool {
	for s := range tot.parts {
		if g.prefNonInt[s][hi+1]-g.prefNonInt[s][lo] != 0 {
			return false
		}
	}
	tot.rows = g.prefRows[hi+1] - g.prefRows[lo]
	for s := range tot.parts {
		count := g.prefCount[s][hi+1] - g.prefCount[s][lo]
		sumI := g.prefSumI[s][hi+1] - g.prefSumI[s][lo]
		// All-integer range: the exact float sum is the integer sum.
		tot.parts[s] = cubePart{count: count, sumI: sumI, sumF: float64(sumI)}
	}
	return true
}

func (d *dCube) totalFromScan(t *cubeTiles, g *cubeGroup, tot *cubeTotal) {
	tot.rows = 0
	for s := range tot.parts {
		tot.parts[s] = cubePart{}
	}
	for kstr, m := range d.mult {
		id, ok := t.bins[kstr]
		if !ok {
			continue
		}
		c := g.cells[id]
		if c == nil {
			continue
		}
		tot.rows += m * c.rows
		for s := range tot.parts {
			tot.parts[s].combine(&c.parts[s], m)
		}
	}
}

// outputGroup computes the group's current output row (nil when HAVING drops
// it, or when a keyed group has no selected rows — the group is simply not in
// the output, exactly as dAggregate drops empty groups).
func (d *dCube) outputGroup(env *expr.Env, t *cubeTiles, gi int) (relation.Tuple, error) {
	prog := d.prog()
	g := t.groups[gi]
	tot := &d.totals[gi]
	if tot.rows == 0 && len(prog.groupBy) > 0 {
		return nil, nil
	}
	env.Row = g.rep
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
	d.mult, d.totals = nil, nil
	if d.fp == "" {
		d.tiles = nil
		d.fact.reset()
	}
	// Shared attachments (and the donated fact subtree) survive resets, like
	// dJoin's shared sides: the tiles track shared base data, which a
	// session-local reset says nothing about.
	d.sel.reset()
}

// tileBytes reports the private tile memory this operator holds (shared
// tiles are accounted by the group's ApproxBytes).
func (d *dCube) tileBytes() int64 {
	if d.sc != nil {
		return 0
	}
	return d.tiles.approxBytes()
}

// takeBuilds drains the tiles' build counter.
func (t *cubeTiles) takeBuilds() int64 {
	n := t.builds
	t.builds = 0
	return n
}

// --- build-time wiring ---

// buildCube attempts the index-tile rewrite for an Aggregate directly over a
// pure equi-join whose grouping keys and aggregate arguments all read one
// side. Returns false (and the caller builds the ordinary dAggregate/dJoin
// pair) for every other shape.
func (db *deltaBuilder) buildCube(t *bAggregate) (dnode, bool) {
	if db.noCube || t.static == nil {
		return nil, false
	}
	j, ok := t.child.(*bJoin)
	if !ok || len(j.lks) == 0 || j.residual.raw != nil {
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
		b: t,
		shape: cubeShape{
			prog:     t.static,
			factKeys: factKeys,
			factKRaw: factKRaw,
			factLeft: info.FactLeft,
			fw:       fw,
			sw:       sw,
		},
		fact:    fact,
		sel:     sel,
		selKeys: selKeys,
		selKRaw: selKRaw,
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
		joinStrings(p.groupStr), joinStrings(specs), joinStrings(p.itemStr), hav, factLeft, fw, sw)
}

func joinStrings(s []string) string {
	out := ""
	for i, x := range s {
		if i > 0 {
			out += ","
		}
		out += x
	}
	return out
}

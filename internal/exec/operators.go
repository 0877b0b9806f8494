package exec

// Bound operator execution. Every operator evaluates compiled expressions
// (expr.Compiled) over an expr.Env whose Row field is repointed per input
// row — no name resolution, no tree walks — and the hashing operators key
// their tables with Tuple.Hash/Tuple.Equal instead of per-row key strings.
// Output relations are preallocated from input cardinalities and output
// tuples are carved from value arenas.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
)

// --- scan ---

type bScan struct {
	s *plan.Scan
}

func (b *bScan) run(ex *Executor) (*Result, error) {
	s := b.s
	if s.Name == "" { // constant SELECT: one empty row
		rel := relation.New("", relation.Schema{})
		rel.Rows = []relation.Tuple{{}}
		res := &Result{Rel: rel}
		if ex.CaptureLineage {
			res.Lin = []Lineage{{}}
		}
		return res, nil
	}
	src, err := ex.Cat.Resolve(s.Name, s.Version)
	if err != nil {
		return nil, err
	}
	out := &relation.Relation{
		Name:   s.Alias,
		Schema: src.Schema.Qualify(s.Alias),
		Rows:   src.Rows,
	}
	res := &Result{Rel: out}
	if ex.CaptureLineage {
		res.Lin = make([]Lineage, len(out.Rows))
		for i := range res.Lin {
			res.Lin[i] = Lineage{s.Name: []int{i}}
		}
	}
	return res, nil
}

// --- filter ---

type bFilter struct {
	child bnode
	pred  bexpr
	kern  filterKernel // columnar fast path for column-vs-literal predicates
}

func (b *bFilter) run(ex *Executor) (*Result, error) {
	in, err := b.child.run(ex)
	if err != nil {
		return nil, err
	}
	pred, err := b.pred.get(ex)
	if err != nil {
		return nil, err
	}
	// Filter output cardinality is unknown (often a small fraction of the
	// input); geometric append growth beats preallocating at input size.
	out := relation.New(in.Rel.Name, in.Rel.Schema)
	if !ex.CaptureLineage {
		// Lineage needs per-row input positions, which the batch drops.
		if rows, ok := b.kern.filterBatch(in.Rel.Rows, nil); ok {
			out.Rows = rows
			return &Result{Rel: out}, nil
		}
	}
	var lin []Lineage
	env := &expr.Env{}
	for i, row := range in.Rel.Rows {
		env.Row = row
		v, err := pred(env)
		if err != nil {
			return nil, fmt.Errorf("filter %s: %w", b.pred.String(), err)
		}
		if !v.IsNull() && v.Truthy() {
			out.Rows = append(out.Rows, row)
			if ex.CaptureLineage {
				lin = append(lin, in.Lin[i])
			}
		}
	}
	return &Result{Rel: out, Lin: lin}, nil
}

// --- project ---

type bProject struct {
	child     bnode
	outSchema relation.Schema
	items     []bexpr
	static    []expr.Compiled // set when every item compiled at prepare time
	cols      []int           // per item: input column index for bare columns, else -1
}

func (b *bProject) run(ex *Executor) (*Result, error) {
	in, err := b.child.run(ex)
	if err != nil {
		return nil, err
	}
	fns := b.static
	if fns == nil {
		fns = make([]expr.Compiled, len(b.items))
		for i := range b.items {
			fns[i], err = b.items[i].get(ex)
			if err != nil {
				return nil, err
			}
		}
	}
	out := relation.New("", b.outSchema)
	out.Rows = make([]relation.Tuple, 0, len(in.Rel.Rows))
	env := &expr.Env{}
	var arena valueArena
	arena.expect(len(in.Rel.Rows) * len(fns))
	for _, row := range in.Rel.Rows {
		env.Row = row
		t := arena.alloc(len(fns))
		for c, fn := range fns {
			if idx := b.cols[c]; idx >= 0 {
				t[c] = row[idx]
				continue
			}
			v, err := fn(env)
			if err != nil {
				return nil, fmt.Errorf("project %s: %w", b.items[c].String(), err)
			}
			t[c] = v
		}
		out.Rows = append(out.Rows, t)
	}
	return &Result{Rel: out, Lin: in.Lin}, nil
}

// --- join ---

type bJoin struct {
	l, r         bnode
	outSchema    relation.Schema // concat of the sides, fixed at prepare time
	lw, rw       int             // side widths
	lks, rks     []expr.Compiled // equi-key evaluators, bound to each side
	lkRaw, rkRaw []expr.Expr     // key expressions, for error text
	residual     bexpr
}

func (b *bJoin) run(ex *Executor) (*Result, error) {
	l, err := b.l.run(ex)
	if err != nil {
		return nil, err
	}
	r, err := b.r.run(ex)
	if err != nil {
		return nil, err
	}
	residual, err := b.residual.get(ex)
	if err != nil {
		return nil, err
	}
	out := relation.New("", b.outSchema)
	var lin []Lineage

	lw, rw := b.lw, b.rw
	var arena valueArena
	guess := len(l.Rel.Rows)
	if len(r.Rel.Rows) > guess {
		guess = len(r.Rel.Rows)
	}
	arena.expect(guess * (lw + rw))
	emit := func(li, ri int, lrow, rrow relation.Tuple) {
		t := arena.alloc(len(lrow) + len(rrow))
		copy(t, lrow)
		copy(t[len(lrow):], rrow)
		out.Rows = append(out.Rows, t)
		if ex.CaptureLineage {
			lin = append(lin, mergeLineage(l.Lin[li], r.Lin[ri]))
		}
	}
	env := &expr.Env{}
	// One scratch tuple serves every residual check; the concatenation is
	// only materialized for real when a pair survives and emit runs.
	scratch := make(relation.Tuple, 0, lw+rw)
	residualOK := func(lrow, rrow relation.Tuple) (bool, error) {
		if residual == nil {
			return true, nil
		}
		scratch = append(append(scratch[:0], lrow...), rrow...)
		env.Row = scratch
		v, err := residual(env)
		if err != nil {
			return false, fmt.Errorf("join predicate %s: %w", b.residual.String(), err)
		}
		return !v.IsNull() && v.Truthy(), nil
	}

	if len(b.lks) > 0 {
		// hash join: build on left, probe with right
		table := newJoinTable(len(l.Rel.Rows), len(b.lks))
		key := make(relation.Tuple, len(b.lks))
		for i, row := range l.Rel.Rows {
			env.Row = row
			null, err := evalKeys(b.lks, b.lkRaw, key, env)
			if err != nil {
				return nil, err
			}
			if null {
				continue // NULL join keys never match
			}
			table.insert(key, i)
		}
		out.Rows = make([]relation.Tuple, 0, len(r.Rel.Rows))
		for ri, rrow := range r.Rel.Rows {
			env.Row = rrow
			null, err := evalKeys(b.rks, b.rkRaw, key, env)
			if err != nil {
				return nil, err
			}
			if null {
				continue
			}
			for _, li := range table.probe(key) {
				ok, err := residualOK(l.Rel.Rows[li], rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					emit(li, ri, l.Rel.Rows[li], rrow)
				}
			}
		}
	} else {
		for li, lrow := range l.Rel.Rows {
			for ri, rrow := range r.Rel.Rows {
				ok, err := residualOK(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					emit(li, ri, lrow, rrow)
				}
			}
		}
	}
	return &Result{Rel: out, Lin: lin}, nil
}

// evalKeys fills the scratch key tuple from the compiled key evaluators; a
// true first result means a NULL key (which never matches any row).
func evalKeys(fns []expr.Compiled, raw []expr.Expr, key relation.Tuple, env *expr.Env) (bool, error) {
	for i, fn := range fns {
		v, err := fn(env)
		if err != nil {
			return false, fmt.Errorf("join key %s: %w", raw[i].String(), err)
		}
		if v.IsNull() {
			return true, nil
		}
		key[i] = v
	}
	return false, nil
}

// --- aggregate ---

// aggPart is the decomposable part of an aggregate call: COUNT of the
// non-null values and their SUM, kept as a compensated float sum beside an
// exact integer sum and a non-integer counter (SUM is an int while every
// value was one). aggState embeds one per group; the cube keeps one per tile
// cell and per weighted total, so composing cells reproduces the delta
// pipeline's results bit-for-bit on integer data.
type aggPart struct {
	count int64 // non-null values accumulated (after DISTINCT dedup)
	// sumF carries the running float sum with a Neumaier (improved Kahan)
	// compensation term sumC. Float addition is not associative, so the
	// delta path's add/remove order would otherwise drift from a fresh
	// recomputation's row-order sum in the low bits; the compensation
	// recovers the lost bits on both paths (SUM reads sumF + sumC).
	sumF   float64
	sumC   float64
	sumI   int64
	nonInt int64 // accumulated values not exactly representable as ints
}

// addFloat folds f into the compensated running sum (Neumaier variant:
// unlike classic Kahan it also recovers bits when the addend is larger
// than the running sum, which removal makes common).
func (p *aggPart) addFloat(f float64) {
	t := p.sumF + f
	if math.Abs(p.sumF) >= math.Abs(f) {
		p.sumC += (p.sumF - t) + f
	} else {
		p.sumC += (f - t) + p.sumF
	}
	p.sumF = t
}

// accumulate folds one non-NULL value in with a signed weight: ±1 to add or
// remove a row, or a bin multiplicity. Multiplying by ±1 is exact, so adding
// and removing through here matches unweighted arithmetic bit for bit.
// Callers skip NULLs themselves: every caller tests for NULL first anyway,
// and a second test here would copy v again on every call.
func (p *aggPart) accumulate(v relation.Value, w int64) {
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
		// Exact reset for emptied groups: the true sums are zero, so clear
		// any residual float error.
		*p = aggPart{}
	}
}

// combine folds another partial in with a multiplicity.
func (p *aggPart) combine(o *aggPart, w int64) {
	p.count += w * o.count
	p.sumI += w * o.sumI
	p.nonInt += w * o.nonInt
	p.addFloat(float64(w) * (o.sumF + o.sumC))
}

// result evaluates COUNT, SUM or AVG; any other call reads NULL.
func (p *aggPart) result(name string, rowsInGroup int64, star bool) relation.Value {
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

// aggState accumulates one aggregate call for one group. The full path only
// ever adds values; the delta path also removes them, which needs the
// distinct-value counts (vals) for DISTINCT semantics and for repairing
// min/max after the current extremum is deleted.
type aggState struct {
	aggPart
	min, max relation.Value
	// vals counts occurrences per canonical value. Allocated when the spec
	// is DISTINCT (dedup) or when the caller asks for removal support.
	vals  map[relation.Value]int64
	dedup bool
}

// newAggState builds accumulate-only state (the full path). dedup marks a
// DISTINCT aggregate.
func newAggState(dedup bool) *aggState {
	st := &aggState{min: relation.Null(), max: relation.Null(), dedup: dedup}
	if dedup {
		st.vals = make(map[relation.Value]int64)
	}
	return st
}

// newDeltaAggState builds state that also supports remove. trackVals forces
// value counting even for non-DISTINCT specs (min/max repair).
func newDeltaAggState(dedup, trackVals bool) *aggState {
	st := newAggState(dedup)
	if trackVals && st.vals == nil {
		st.vals = make(map[relation.Value]int64)
	}
	return st
}

func (st *aggState) add(v relation.Value) {
	if v.IsNull() {
		return
	}
	if st.vals != nil {
		k := v.Key()
		st.vals[k]++
		if st.dedup && st.vals[k] > 1 {
			return
		}
	}
	st.accumulate(v, 1)
	if st.min.IsNull() || v.Compare(st.min) < 0 {
		st.min = v
	}
	if st.max.IsNull() || v.Compare(st.max) > 0 {
		st.max = v
	}
}

// remove undoes one add. It requires vals tracking when min/max repair may
// be needed; callers guarantee that by constructing delta states with
// trackVals for min/max specs.
func (st *aggState) remove(v relation.Value) error {
	if v.IsNull() {
		return nil
	}
	k := v.Key()
	if st.vals != nil {
		n := st.vals[k] - 1
		if n < 0 {
			return fmt.Errorf("aggregate state: removing value %s never added", v)
		}
		if n == 0 {
			delete(st.vals, k)
		} else {
			st.vals[k] = n
		}
		if st.dedup && n > 0 {
			return nil // other occurrences keep the distinct value alive
		}
	}
	st.accumulate(v, -1)
	if st.count < 0 {
		return fmt.Errorf("aggregate state: count went negative")
	}
	if st.count == 0 {
		st.min, st.max = relation.Null(), relation.Null()
		return nil
	}
	// Repair min/max if the removed value was the extremum and is now gone.
	if st.vals != nil && st.vals[k] == 0 {
		if !st.min.IsNull() && st.min.Key() == k {
			st.min = st.rescan(-1)
		}
		if !st.max.IsNull() && st.max.Key() == k {
			st.max = st.rescan(+1)
		}
	}
	return nil
}

// rescan finds the new extremum from the value counts (dir < 0: min).
func (st *aggState) rescan(dir int) relation.Value {
	best := relation.Null()
	for v := range st.vals {
		if best.IsNull() || dir*v.Compare(best) > 0 {
			best = v
		}
	}
	return best
}

func (st *aggState) result(name string, rowsInGroup int64, star bool) relation.Value {
	switch name {
	case "min":
		return st.min
	case "max":
		return st.max
	default:
		return st.aggPart.result(name, rowsInGroup, star)
	}
}

type group struct {
	key     relation.Tuple
	rep     relation.Tuple
	rows    int64
	states  []*aggState
	lineage Lineage
}

type bAggregate struct {
	child    bnode
	a        *plan.Aggregate
	inSchema relation.Schema
	// static is the program compiled at prepare time; nil when some
	// expression needs per-execution subquery resolution first.
	static *aggProgram
}

func (b *bAggregate) run(ex *Executor) (*Result, error) {
	in, err := b.child.run(ex)
	if err != nil {
		return nil, err
	}
	prog := b.static
	if prog == nil {
		groupBy := make([]expr.Expr, len(b.a.GroupBy))
		for i, g := range b.a.GroupBy {
			if groupBy[i], err = ex.resolveExpr(g); err != nil {
				return nil, err
			}
		}
		items, err := ex.resolveItems(b.a.Items)
		if err != nil {
			return nil, err
		}
		having, err := ex.resolveExpr(b.a.Having)
		if err != nil {
			return nil, err
		}
		prog = compileAgg(groupBy, items, having, b.inSchema, ex.Funcs)
	}

	nk := len(prog.groupBy)
	env := &expr.Env{}
	key := make(relation.Tuple, nk)
	// Group count is unknown up front; batch key storage a few groups at a
	// time rather than one allocation per group.
	var keyArena valueArena
	keyArena.expect(16 * nk)
	groups := make(map[uint64][]*group)
	var order []*group
	newGroup := func(h uint64, rep relation.Tuple) *group {
		grp := &group{rep: rep, states: make([]*aggState, len(prog.specs))}
		if rep != nil {
			grp.key = keyArena.alloc(nk)
			copy(grp.key, key)
		}
		for si := range grp.states {
			grp.states[si] = newAggState(prog.specs[si].agg.Distinct)
		}
		if ex.CaptureLineage {
			grp.lineage = Lineage{}
		}
		groups[h] = append(groups[h], grp)
		order = append(order, grp)
		return grp
	}
	for i, row := range in.Rel.Rows {
		env.Row = row
		for gi, g := range prog.groupBy {
			if idx := prog.groupCols[gi]; idx >= 0 {
				key[gi] = row[idx]
				continue
			}
			v, err := g(env)
			if err != nil {
				return nil, fmt.Errorf("group by %s: %w", prog.groupStr[gi], err)
			}
			key[gi] = v
		}
		h := key.Hash()
		var grp *group
		for _, cand := range groups[h] {
			if cand.key.Equal(key) {
				grp = cand
				break
			}
		}
		if grp == nil {
			grp = newGroup(h, row)
		}
		grp.rows++
		for si := range prog.specs {
			sp := &prog.specs[si]
			if sp.arg == nil { // count(*)
				continue
			}
			var v relation.Value
			if sp.argCol >= 0 {
				v = row[sp.argCol]
			} else {
				var err error
				if v, err = sp.arg(env); err != nil {
					return nil, fmt.Errorf("aggregate %s: %w", sp.str, err)
				}
			}
			grp.states[si].add(v)
		}
		if ex.CaptureLineage {
			grp.lineage = mergeLineage(grp.lineage, in.Lin[i])
		}
	}

	// A global aggregate (no GROUP BY) over zero rows still yields one row;
	// its nil representative makes every column NULL.
	if len(order) == 0 && nk == 0 {
		newGroup(0, nil)
	}

	out := relation.New("", b.a.Schema())
	out.Rows = make([]relation.Tuple, 0, len(order))
	var lin []Lineage
	aggs := make([]relation.Value, len(prog.specs))
	env.Aggs = aggs
	var arena valueArena
	arena.expect(len(order) * len(prog.items))
	for _, grp := range order {
		env.Row = grp.rep
		for si := range prog.specs {
			sp := &prog.specs[si]
			aggs[si] = grp.states[si].result(sp.agg.Name, grp.rows, sp.agg.Arg == nil)
		}
		if prog.having != nil {
			hv, err := prog.having(env)
			if err != nil {
				return nil, fmt.Errorf("having: %w", err)
			}
			if hv.IsNull() || !hv.Truthy() {
				continue
			}
		}
		t := arena.alloc(len(prog.items))
		for c, it := range prog.items {
			v, err := it(env)
			if err != nil {
				return nil, fmt.Errorf("aggregate output %s: %w", prog.itemStr[c], err)
			}
			t[c] = v
		}
		out.Rows = append(out.Rows, t)
		if ex.CaptureLineage {
			lin = append(lin, grp.lineage)
		}
	}
	return &Result{Rel: out, Lin: lin}, nil
}

// --- sort / limit / distinct / set ops ---

type bSort struct {
	child  bnode
	s      *plan.Sort
	keys   []bexpr
	static []expr.Compiled // set when every key compiled at prepare time
}

func (b *bSort) run(ex *Executor) (*Result, error) {
	in, err := b.child.run(ex)
	if err != nil {
		return nil, err
	}
	fns := b.static
	if fns == nil {
		fns = make([]expr.Compiled, len(b.keys))
		for i := range b.keys {
			fns[i], err = b.keys[i].get(ex)
			if err != nil {
				return nil, err
			}
		}
	}
	type sortRow struct {
		row  relation.Tuple
		lin  Lineage
		keys relation.Tuple
	}
	rows := make([]sortRow, len(in.Rel.Rows))
	env := &expr.Env{}
	var keyArena valueArena
	keyArena.expect(len(in.Rel.Rows) * len(fns))
	for i, row := range in.Rel.Rows {
		env.Row = row
		kt := keyArena.alloc(len(fns))
		for ki, fn := range fns {
			v, err := fn(env)
			if err != nil {
				return nil, fmt.Errorf("order by %s: %w", b.keys[ki].String(), err)
			}
			kt[ki] = v
		}
		rows[i] = sortRow{row: row, keys: kt}
		if ex.CaptureLineage {
			rows[i].lin = in.Lin[i]
		}
	}
	// compareKeyedRows breaks key ties on the full tuple, so the output
	// order — and any LIMIT prefix over it — is a function of the row bag
	// alone, not of input order; the delta path's order-statistic tree
	// orders through the same function, so recomputes, deltas, and pixels
	// agree.
	desc := make([]bool, len(b.s.Keys))
	for ki := range b.s.Keys {
		desc[ki] = b.s.Keys[ki].Desc
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return compareKeyedRows(rows[i].keys, rows[j].keys, desc, rows[i].row, rows[j].row) < 0
	})
	out := relation.New(in.Rel.Name, in.Rel.Schema)
	out.Rows = make([]relation.Tuple, 0, len(rows))
	var lin []Lineage
	if ex.CaptureLineage {
		lin = make([]Lineage, 0, len(rows))
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, r.row)
		if ex.CaptureLineage {
			lin = append(lin, r.lin)
		}
	}
	return &Result{Rel: out, Lin: lin}, nil
}

type bLimit struct {
	child bnode
	n     int
}

func (b *bLimit) run(ex *Executor) (*Result, error) {
	in, err := b.child.run(ex)
	if err != nil {
		return nil, err
	}
	n := b.n
	if n > len(in.Rel.Rows) {
		n = len(in.Rel.Rows)
	}
	out := relation.New(in.Rel.Name, in.Rel.Schema)
	res := &Result{Rel: out}
	if _, sorted := b.child.(*bSort); sorted || n == len(in.Rel.Rows) {
		// An ORDER BY child already fixed the order; a full-bag prefix is the
		// whole input either way.
		out.Rows = in.Rel.Rows[:n]
		if ex.CaptureLineage {
			res.Lin = in.Lin[:n]
		}
		return res, nil
	}
	// Bare LIMIT: pin the prefix to the deterministic full-tuple order so the
	// result is a function of the row bag, not of operator emission order —
	// the delta path maintains the same prefix with a zero-key order-statistic
	// tree. Sort an index permutation, not the rows themselves: a scan child
	// aliases the base relation's row storage.
	idx := make([]int, len(in.Rel.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return relation.CompareTuples(in.Rel.Rows[idx[x]], in.Rel.Rows[idx[y]]) < 0
	})
	out.Rows = make([]relation.Tuple, n)
	for i := 0; i < n; i++ {
		out.Rows[i] = in.Rel.Rows[idx[i]]
	}
	if ex.CaptureLineage {
		res.Lin = make([]Lineage, n)
		for i := 0; i < n; i++ {
			res.Lin[i] = in.Lin[idx[i]]
		}
	}
	return res, nil
}

type bDistinct struct {
	child bnode
}

func (b *bDistinct) run(ex *Executor) (*Result, error) {
	in, err := b.child.run(ex)
	if err != nil {
		return nil, err
	}
	out := relation.New(in.Rel.Name, in.Rel.Schema)
	out.Rows = make([]relation.Tuple, 0, len(in.Rel.Rows))
	var lin []Lineage
	table := newTupleTable(len(in.Rel.Rows))
	for i, row := range in.Rel.Rows {
		at, dup := table.getOrInsert(row)
		if dup {
			if ex.CaptureLineage {
				lin[at] = mergeLineage(lin[at], in.Lin[i])
			}
			continue
		}
		out.Rows = append(out.Rows, row)
		if ex.CaptureLineage {
			lin = append(lin, in.Lin[i])
		}
	}
	return &Result{Rel: out, Lin: lin}, nil
}

type bSetOp struct {
	l, r bnode
	kind plan.SetKind
	all  bool
}

func (b *bSetOp) run(ex *Executor) (*Result, error) {
	l, err := b.l.run(ex)
	if err != nil {
		return nil, err
	}
	r, err := b.r.run(ex)
	if err != nil {
		return nil, err
	}
	if l.Rel.Schema.Len() != r.Rel.Schema.Len() {
		return nil, fmt.Errorf("set operands are not union compatible")
	}
	out := relation.New("", l.Rel.Schema)
	var lin []Lineage
	switch b.kind {
	case plan.SetUnion:
		if b.all {
			out.Rows = make([]relation.Tuple, 0, len(l.Rel.Rows)+len(r.Rel.Rows))
			out.Rows = append(append(out.Rows, l.Rel.Rows...), r.Rel.Rows...)
			if ex.CaptureLineage {
				lin = append(append([]Lineage{}, l.Lin...), r.Lin...)
			}
			return &Result{Rel: out, Lin: lin}, nil
		}
		out.Rows = make([]relation.Tuple, 0, len(l.Rel.Rows)+len(r.Rel.Rows))
		table := newTupleTable(len(l.Rel.Rows) + len(r.Rel.Rows))
		add := func(rows []relation.Tuple, lins []Lineage) {
			for i, row := range rows {
				at, dup := table.getOrInsert(row)
				if dup {
					if ex.CaptureLineage {
						lin[at] = mergeLineage(lin[at], lins[i])
					}
					continue
				}
				out.Rows = append(out.Rows, row)
				if ex.CaptureLineage {
					lin = append(lin, lins[i])
				}
			}
		}
		add(l.Rel.Rows, l.Lin)
		add(r.Rel.Rows, r.Lin)
	case plan.SetMinus: // set semantics, as SQL EXCEPT
		right := newTupleTable(len(r.Rel.Rows))
		for _, row := range r.Rel.Rows {
			right.getOrInsert(row)
		}
		out.Rows = make([]relation.Tuple, 0, len(l.Rel.Rows))
		seen := newTupleTable(len(l.Rel.Rows))
		for i, row := range l.Rel.Rows {
			if _, drop := right.lookup(row); drop {
				continue
			}
			at, dup := seen.getOrInsert(row)
			if dup {
				if ex.CaptureLineage {
					lin[at] = mergeLineage(lin[at], l.Lin[i])
				}
				continue
			}
			out.Rows = append(out.Rows, row)
			if ex.CaptureLineage {
				lin = append(lin, l.Lin[i])
			}
		}
	default: // intersect (set semantics)
		right := newTupleTable(len(r.Rel.Rows))
		for _, row := range r.Rel.Rows {
			right.getOrInsert(row)
		}
		out.Rows = make([]relation.Tuple, 0, len(l.Rel.Rows))
		seen := newTupleTable(len(l.Rel.Rows))
		for i, row := range l.Rel.Rows {
			if _, keep := right.lookup(row); !keep {
				continue
			}
			at, dup := seen.getOrInsert(row)
			if dup {
				if ex.CaptureLineage {
					lin[at] = mergeLineage(lin[at], l.Lin[i])
				}
				continue
			}
			out.Rows = append(out.Rows, row)
			if ex.CaptureLineage {
				lin = append(lin, l.Lin[i])
			}
		}
	}
	return &Result{Rel: out, Lin: lin}, nil
}

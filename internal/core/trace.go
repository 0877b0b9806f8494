package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/relation"
)

// runTrace evaluates a BACKWARD/FORWARD TRACE statement (§3.1, DeVIL 4).
//
// BACKWARD TRACE FROM <rels> WHERE <pred> TO <target> evaluates the join
// among the FROM relations, then traces each contributing row back through
// the view workflow until rows of <target> are reached; the result is the
// contributing sub-relation of <target>.
//
// FORWARD TRACE FROM <rel> WHERE <pred> TO <view> selects rows of the source
// relation and returns the rows of <view> whose lineage includes any of
// them.
func (e *Engine) runTrace(tr *parser.TraceStmt) (*relation.Relation, error) {
	if tr.Backward {
		return e.backwardTrace(tr)
	}
	return e.forwardTrace(tr)
}

func (e *Engine) backwardTrace(tr *parser.TraceStmt) (*relation.Relation, error) {
	// Step 1: evaluate the FROM/WHERE join with scan-level lineage.
	sel := &parser.SelectStmt{
		Items: []parser.SelectItem{{Star: true}},
		From:  tr.From,
		Where: tr.Where,
		Limit: -1,
	}
	ex := e.executor()
	ex.CaptureLineage = true
	res, err := ex.RunQuery(sel)
	if err != nil {
		return nil, fmt.Errorf("trace join: %w", err)
	}

	// Step 2: pool contributing rows per scanned relation.
	contrib := map[string]map[int]bool{}
	for _, lin := range res.Lin {
		for name, rows := range lin {
			m := contrib[strings.ToLower(name)]
			if m == nil {
				m = map[int]bool{}
				contrib[strings.ToLower(name)] = m
			}
			for _, r := range rows {
				m[r] = true
			}
		}
	}

	// Versions the FROM clause read each relation at (exec lineage keys
	// carry only names).
	versions := map[string]relation.VersionRef{}
	for _, ref := range tr.From {
		if ref.Sub == nil {
			versions[strings.ToLower(ref.Name)] = ref.Version
		}
	}

	// Step 3: trace each pool back to the target through view definitions.
	targetRows := map[int]bool{}
	for name, rows := range contrib {
		idxs := setToSlice(rows)
		shift := 0
		if v, ok := versions[name]; ok && v.Kind == relation.VersionVNow {
			shift = v.Offset
		}
		found, err := e.traceToTarget(name, shift, idxs, tr.To, map[string]bool{})
		if err != nil {
			return nil, err
		}
		for _, r := range found {
			targetRows[r] = true
		}
	}

	// Step 4: materialize the contributing sub-relation of the target.
	target, err := e.store.Get(tr.To)
	if err != nil {
		return nil, err
	}
	out := relation.New(tr.To, target.Schema)
	for _, i := range setToSlice(targetRows) {
		if i >= 0 && i < len(target.Rows) {
			out.Rows = append(out.Rows, target.Rows[i])
		}
	}
	return out, nil
}

// traceToTarget resolves row indices of relation name (evaluated at
// vnow-shift) to contributing rows of target, recursing through view
// definitions. visiting guards against malformed cyclic traces.
func (e *Engine) traceToTarget(name string, shift int, rows []int, target string, visiting map[string]bool) ([]int, error) {
	if strings.EqualFold(name, target) {
		return rows, nil
	}
	v, ok := e.views[strings.ToLower(name)]
	if !ok {
		return nil, nil // base relation that is not the target: dead end
	}
	key := fmt.Sprintf("%s@%d", strings.ToLower(name), shift)
	if visiting[key] {
		return nil, fmt.Errorf("trace: cyclic lineage through %s", name)
	}
	visiting[key] = true
	defer delete(visiting, key)

	lin, err := e.viewLineage(v, shift)
	if err != nil {
		return nil, err
	}
	// Pool this view's inputs contributed by the requested rows.
	pools := map[string]map[int]bool{}
	for _, r := range rows {
		if r < 0 || r >= len(lin) {
			continue
		}
		for inName, inRows := range lin[r] {
			m := pools[strings.ToLower(inName)]
			if m == nil {
				m = map[int]bool{}
				pools[strings.ToLower(inName)] = m
			}
			for _, ir := range inRows {
				m[ir] = true
			}
		}
	}
	// Versions the view reads its deps at.
	depVersions := map[string]relation.VersionRef{}
	for _, d := range v.deps {
		depVersions[strings.ToLower(d.name)] = d.version
	}
	var out []int
	for inName, set := range pools {
		childShift := shift
		if dv, ok := depVersions[inName]; ok && dv.Kind == relation.VersionVNow && dv.Offset > 0 {
			childShift += dv.Offset
		}
		found, err := e.traceToTarget(inName, childShift, setToSlice(set), target, visiting)
		if err != nil {
			return nil, err
		}
		out = append(out, found...)
	}
	return out, nil
}

// viewLineage computes the row-level lineage of a view evaluated at
// vnow-shift. Lineage is computed lazily, at trace time, never materialized
// at recompute time: most lineage feeds filters and aggregates (§3.1). The
// lineage array is aligned to the row order of the materialized relation at
// that shift: delta patching (live) and log reconstruction (history)
// preserve a view's bag of tuples but not necessarily the physical order a
// fresh evaluation produces, so rows are matched by tuple identity.
func (e *Engine) viewLineage(v *view, shift int) ([]exec.Lineage, error) {
	if v.isTrace {
		return e.traceViewLineage(v, shift)
	}
	cat := e.store.CatalogAt(shift)
	ex := &exec.Executor{Cat: cat, Funcs: e.funcs, CaptureLineage: true}
	res, err := ex.RunQuery(v.query)
	if err != nil {
		return nil, fmt.Errorf("lineage of %s at vnow-%d: %w", v.name, shift, err)
	}
	rel, err := cat.Resolve(v.name, relation.Current())
	if err != nil {
		return res.Lin, nil // view not materialized at this shift: best effort
	}
	return alignLineage(rel, res.Rel, res.Lin), nil
}

// alignLineage reorders per-row lineage computed by re-running a view's
// query so it indexes like the materialized relation callers hold row
// indices into. Matching is by canonical tuple key; equal tuples are
// paired greedily (their lineages are interchangeable at bag level).
func alignLineage(target, run *relation.Relation, lin []exec.Lineage) []exec.Lineage {
	if len(lin) == 0 {
		return lin
	}
	byKey := make(map[string][]int, len(run.Rows))
	for i, row := range run.Rows {
		k := row.Key()
		byKey[k] = append(byKey[k], i)
	}
	out := make([]exec.Lineage, len(target.Rows))
	for i, row := range target.Rows {
		k := row.Key()
		lst := byKey[k]
		if len(lst) == 0 {
			continue // row missing from the re-run (stale state); no lineage
		}
		j := lst[0]
		byKey[k] = lst[1:]
		if j < len(lin) {
			out[i] = lin[j]
		}
	}
	return out
}

// traceViewLineage derives lineage for a TRACE view: its rows are by
// construction rows of the trace target, so each row's lineage is the
// matching target row (by tuple identity).
func (e *Engine) traceViewLineage(v *view, shift int) ([]exec.Lineage, error) {
	tr := v.query.(*parser.TraceStmt)
	cat := e.store.CatalogAt(shift)
	target, err := cat.Resolve(tr.To, relation.Current())
	if err != nil {
		return nil, err
	}
	self, err := cat.Resolve(v.name, relation.Current())
	if err != nil {
		return nil, err
	}
	index := make(map[string][]int, len(target.Rows))
	for i, row := range target.Rows {
		k := row.Key()
		index[k] = append(index[k], i)
	}
	lin := make([]exec.Lineage, len(self.Rows))
	for i, row := range self.Rows {
		lin[i] = exec.Lineage{tr.To: index[row.Key()]}
	}
	return lin, nil
}

func (e *Engine) forwardTrace(tr *parser.TraceStmt) (*relation.Relation, error) {
	if len(tr.From) != 1 || tr.From[0].Sub != nil {
		return nil, fmt.Errorf("FORWARD TRACE requires a single source relation")
	}
	src := tr.From[0]
	// Select the source rows matching the predicate, with lineage back to
	// the source relation itself.
	sel := &parser.SelectStmt{
		Items: []parser.SelectItem{{Star: true}},
		From:  tr.From,
		Where: tr.Where,
		Limit: -1,
	}
	ex := e.executor()
	ex.CaptureLineage = true
	res, err := ex.RunQuery(sel)
	if err != nil {
		return nil, fmt.Errorf("forward trace source: %w", err)
	}
	selected := map[int]bool{}
	for _, lin := range res.Lin {
		for _, r := range lin[src.Name] {
			selected[r] = true
		}
	}

	// Target must be a view; include each of its rows whose backward
	// lineage to the source intersects the selection.
	v, ok := e.views[strings.ToLower(tr.To)]
	if !ok {
		return nil, fmt.Errorf("FORWARD TRACE target %q is not a view", tr.To)
	}
	lin, err := e.viewLineage(v, 0)
	if err != nil {
		return nil, err
	}
	targetRel, err := e.store.Get(tr.To)
	if err != nil {
		return nil, err
	}
	out := relation.New(tr.To, targetRel.Schema)
	for i := range targetRel.Rows {
		if i >= len(lin) {
			break
		}
		base, err := e.rowBaseLineage(v, lin, i, src.Name, map[string]bool{})
		if err != nil {
			return nil, err
		}
		hit := false
		for _, b := range base {
			if selected[b] {
				hit = true
				break
			}
		}
		if hit {
			out.Rows = append(out.Rows, targetRel.Rows[i])
		}
	}
	return out, nil
}

// rowBaseLineage expands one view row's lineage down to a base relation.
func (e *Engine) rowBaseLineage(v *view, lin []exec.Lineage, row int, base string, visiting map[string]bool) ([]int, error) {
	if row < 0 || row >= len(lin) {
		return nil, nil
	}
	var out []int
	for inName, inRows := range lin[row] {
		if strings.EqualFold(inName, base) {
			out = append(out, inRows...)
			continue
		}
		child, ok := e.views[strings.ToLower(inName)]
		if !ok {
			continue
		}
		if visiting[strings.ToLower(inName)] {
			return nil, fmt.Errorf("trace: cyclic lineage through %s", inName)
		}
		visiting[strings.ToLower(inName)] = true
		childLin, err := e.viewLineage(child, 0)
		if err != nil {
			return nil, err
		}
		for _, ir := range inRows {
			found, err := e.rowBaseLineage(child, childLin, ir, base, visiting)
			if err != nil {
				return nil, err
			}
			out = append(out, found...)
		}
		delete(visiting, strings.ToLower(inName))
	}
	return out, nil
}

func setToSlice(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

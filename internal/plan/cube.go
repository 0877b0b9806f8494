// Data-cube eligibility analysis. The executor can answer brush moves over a
// join-based crossfilter view in O(bins) instead of O(rows) by materializing
// per-chart index tiles: partial aggregates keyed by (brush-bin, output-bin),
// where the brush bin is the join key on the data ("fact") side and the
// output bin is the view's GROUP BY key. A selection change then rescales the
// tiles instead of re-streaming joined rows. The shape that admits tiles is
// narrow and checked here, alongside DeltaSafety:
//
//   - the aggregate sits directly over an equi-join with no residual
//     predicate (each selection row contributes a pure multiplicity per bin);
//   - every aggregate call is decomposable over bins: COUNT and SUM partials
//     add across bins, and AVG decomposes into SUM/COUNT. MIN/MAX and
//     DISTINCT do not (a bin partial cannot be scaled by a multiplicity or
//     subtracted), and fall back to the ordinary delta pipeline;
//   - the grouping keys and aggregate arguments all read one join side (the
//     fact side); the other side only selects which bins are active;
//   - nothing needs per-run subquery/IN resolution (subquery-parameterized
//     views recompute per event and cannot be tiled).
package plan

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/relation"
)

// CubeInfo is the result of CubeEligibility: whether an Aggregate-over-Join
// admits index tiles, which join side carries the data if so, and the first
// blocking reason if not.
type CubeInfo struct {
	OK       bool
	FactLeft bool   // grouping keys and aggregate arguments read the left side
	Reason   string // first disqualifier when !OK
}

// CubeCandidate reports whether the plan contains the shape the cube
// subsystem targets at all — an Aggregate directly over a Join. The engine
// counts a fallback when a candidate view compiles without a cube path
// (CubeEligibility rejected it), mirroring the bare-LIMIT warning.
func CubeCandidate(n Node) bool {
	switch t := n.(type) {
	case *Aggregate:
		if _, ok := t.Child.(*Join); ok {
			return true
		}
		return CubeCandidate(t.Child)
	case *Filter:
		return CubeCandidate(t.Child)
	case *Project:
		return CubeCandidate(t.Child)
	case *aliasProject:
		return CubeCandidate(t.Child)
	case *Join:
		return CubeCandidate(t.L) || CubeCandidate(t.R)
	case *Distinct:
		return CubeCandidate(t.Child)
	case *Sort:
		return CubeCandidate(t.Child)
	case *Limit:
		return CubeCandidate(t.Child)
	case *SetOp:
		return CubeCandidate(t.L) || CubeCandidate(t.R)
	default:
		return false
	}
}

// decomposableAggs is the set of aggregate calls whose per-bin partials
// compose under weighted addition (AVG via its SUM/COUNT decomposition).
var decomposableAggs = map[string]bool{"count": true, "sum": true, "avg": true}

// CubeEligibility analyzes one Aggregate for the index-tile rewrite. It is
// conservative: any shape it cannot prove decomposable is rejected with a
// reason, and the executor falls back to the ordinary delta pipeline.
func CubeEligibility(a *Aggregate) CubeInfo {
	no := func(format string, args ...any) CubeInfo {
		return CubeInfo{Reason: fmt.Sprintf(format, args...)}
	}
	j, ok := a.Child.(*Join)
	if !ok {
		return no("aggregate input is not a join")
	}
	ls, rs := j.L.Schema(), j.R.Schema()
	leftKeys, _, residual := SplitEquiJoin(j.Pred, ls, rs)
	if len(leftKeys) == 0 {
		return no("join has no equi-join key to bin on")
	}
	if residual != nil {
		return no("join predicate %s is not a pure equi-join", residual)
	}
	// Per-run resolution anywhere in the aggregate means the view is
	// subquery-parameterized: its value can change with relations the tiles
	// never see a delta for.
	for _, g := range a.GroupBy {
		if expr.NeedsResolution(g) {
			return no("group-by key %s needs per-run resolution", g)
		}
	}
	var aggs []*expr.Agg
	for _, it := range a.Items {
		if expr.NeedsResolution(it.Expr) {
			return no("aggregate output %s needs per-run resolution", it.Expr)
		}
		aggs = append(aggs, expr.Aggregates(it.Expr)...)
	}
	if a.Having != nil {
		if expr.NeedsResolution(a.Having) {
			return no("HAVING needs per-run resolution")
		}
		aggs = append(aggs, expr.Aggregates(a.Having)...)
	}
	var args []expr.Expr
	for _, ag := range aggs {
		if ag.Distinct {
			return no("aggregate %s is not decomposable over bins (DISTINCT)", ag)
		}
		if !decomposableAggs[ag.Name] {
			return no("aggregate %s is not decomposable over bins", ag)
		}
		if ag.Arg != nil {
			args = append(args, ag.Arg)
		}
	}
	// Fact side: the side that carries every grouping key and aggregate
	// argument. The other side contributes only bin multiplicities.
	factExprs := append(append([]expr.Expr{}, a.GroupBy...), args...)
	switch {
	case exprsBindIn(factExprs, ls):
		return CubeInfo{OK: true, FactLeft: true}
	case exprsBindIn(factExprs, rs):
		return CubeInfo{OK: true, FactLeft: false}
	default:
		return no("grouping keys and aggregate arguments read both join sides")
	}
}

// exprsBindIn reports whether every column across es resolves within s.
// Expressions without columns (constants) bind anywhere.
func exprsBindIn(es []expr.Expr, s relation.Schema) bool {
	for _, e := range es {
		ok := true
		expr.Walk(e, func(x expr.Expr) bool {
			switch c := x.(type) {
			case *expr.Column:
				if _, err := s.IndexErr(c.Qualifier, c.Name); err != nil {
					ok = false
					return false
				}
			case *expr.Subquery:
				ok = false
				return false
			}
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}

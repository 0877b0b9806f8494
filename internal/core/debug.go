package core

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/relation"
)

// Deconstruct recovers, for every row of a marks view, the base-relation
// rows that generated it — the provenance-native version of Harper &
// Agrawala's D3 deconstruction (§3.1): "Native provenance support can
// support such restyling techniques out of the box." The result joins each
// mark's attributes (qualified by the view name) with its source row's
// attributes (qualified by the base name); a mark derived from k distinct
// base rows yields k output rows, in ascending base-row order. Marks map to
// base rows through the same version-aware walk as Lineage.
//
// Restyling is then just another DeVIL view over the deconstructed
// relation, with new visual encodings.
func (e *Engine) Deconstruct(markView, base string) (*relation.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.views[strings.ToLower(markView)]; !ok {
		return nil, fmt.Errorf("deconstruct: %q is not a view", markView)
	}
	baseRel, err := e.store.Get(base)
	if err != nil {
		return nil, err
	}
	marks, err := e.store.Get(markView)
	if err != nil {
		return nil, err
	}
	out := relation.New(
		markView+"_data",
		marks.Schema.Qualify(markView).Concat(baseRel.Schema.Qualify(base)),
	)
	walk := e.newLineageWalk(base)
	for i, markRow := range marks.Rows {
		srcRows, err := walk.rows(markView, 0, []int{i})
		if err != nil {
			return nil, err
		}
		for _, bi := range srcRows {
			if bi < 0 || bi >= len(baseRel.Rows) {
				continue
			}
			joined := make(relation.Tuple, 0, len(markRow)+len(baseRel.Rows[bi]))
			joined = append(joined, markRow...)
			joined = append(joined, baseRel.Rows[bi]...)
			out.Rows = append(out.Rows, joined)
		}
	}
	return out, nil
}

// ExplainView returns the optimized logical plan of a view, the
// inspection surface for the paper's interaction-debugging use case
// ("provenance can identify input-output dependencies between operators of
// the workflow").
func (e *Engine) ExplainView(name string) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[strings.ToLower(name)]
	if !ok {
		return "", fmt.Errorf("explain: %q is not a view", name)
	}
	if v.isTrace {
		return fmt.Sprintf("TraceView %s (evaluated by the provenance tracer)\n", v.name), nil
	}
	p, err := plan.Build(v.query, e.catalog())
	if err != nil {
		return "", err
	}
	p = plan.Optimize(p, e.funcs)
	return plan.Format(p), nil
}

// DebugReport exposes the state of the visualization workflow for
// inspection — the first debugging operation of §3.1: data, marks, and
// event relations with row counts, view dependencies in evaluation order,
// recognizer states, and version history depth.
func (e *Engine) DebugReport() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b strings.Builder
	b.WriteString("=== DVMS debug report ===\n")
	fmt.Fprintf(&b, "committed versions: %d; in transaction: %v\n",
		e.store.Versions(), e.store.InTxn())
	b.WriteString("\nrelations:\n")
	for _, name := range e.store.Names() {
		rel, err := e.store.Get(name)
		if err != nil {
			continue
		}
		kind := "base"
		if v, ok := e.views[strings.ToLower(name)]; ok {
			switch {
			case v.isTrace:
				kind = "trace view"
			case v.renderAs != nil:
				kind = "render sink"
			default:
				kind = "view"
			}
		}
		fmt.Fprintf(&b, "  %-24s %-11s %6d rows %s\n", name, kind, rel.Len(), rel.Schema)
	}
	b.WriteString("\nevaluation order and dependencies:\n")
	for _, name := range e.topo {
		v := e.views[strings.ToLower(name)]
		var deps []string
		for _, d := range v.deps {
			deps = append(deps, d.name+d.version.String())
		}
		fmt.Fprintf(&b, "  %-24s <- %s\n", name, strings.Join(deps, ", "))
	}
	if len(e.recognizers) > 0 {
		b.WriteString("\ninteractions:\n")
		for _, r := range e.recognizers {
			state := "idle"
			if r.Active() {
				state = "matching"
			}
			fmt.Fprintf(&b, "  %-24s starts on %-12s %s\n", r.Name(), r.FirstType(), state)
		}
	}
	if len(e.warnings) > 0 {
		b.WriteString("\nstatic-analysis warnings:\n")
		for _, w := range e.warnings {
			fmt.Fprintf(&b, "  %s\n", w)
		}
	}
	fmt.Fprintf(&b, "\nstats: %d view recomputes, %d render passes, %d events (%d filtered), %d commits, %d aborts\n",
		e.Stats.ViewRecomputes, e.Stats.RenderPasses, e.Stats.EventsFed,
		e.Stats.EventsFiltered, e.Stats.Commits, e.Stats.Aborts)
	fmt.Fprintf(&b, "delta: %d delta applies (%d rows in, %d rows out), %d full fallbacks, %d empty-delta skips, %d render skips\n",
		e.Stats.ViewDeltaApplies, e.Stats.DeltaRowsIn, e.Stats.DeltaRowsOut,
		e.Stats.FullFallbacks, e.Stats.EmptyDeltaSkips, e.Stats.RenderSkips)
	return b.String()
}

// Lineage exposes row-level lineage of a view for hosts (explanation
// engines, §3.1's "visualization explanation" use case): for each output
// row index in rows, the contributing row indices of the base relation, each
// once and ascending. Lineage follows the version each view reads: a view
// over X@vnow-1 maps into the rows X had one version back.
func (e *Engine) Lineage(view string, rows []int, base string) ([][]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.views[strings.ToLower(view)]; !ok {
		return nil, fmt.Errorf("lineage: %q is not a view", view)
	}
	walk := e.newLineageWalk(base)
	out := make([][]int, len(rows))
	for i, r := range rows {
		src, err := walk.rows(view, 0, []int{r})
		if err != nil {
			return nil, err
		}
		out[i] = src
	}
	return out, nil
}

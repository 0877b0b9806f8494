package events

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/relation"
)

// Actions reports what a Feed call did, in order: a transaction may begin,
// rows may be emitted into the compound event table, and the transaction may
// commit or abort. The engine applies these to storage and view maintenance.
type Actions struct {
	Began     bool
	Rows      []relation.Tuple
	Committed bool
	Aborted   bool
	// Filtered is true when the event was dropped before reaching the NFA
	// (wrong type, or a plain WHERE predicate failed), exposed for tests
	// and debugging.
	Filtered bool
}

// Recognizer is a compiled EVENT statement: a nondeterministic finite
// automaton over the low-level event stream. One Recognizer instance tracks
// one in-flight interaction at a time (the paper's single-user,
// single-interaction model; the engine composes several recognizers for
// multi-interaction programs).
type Recognizer struct {
	stmt    *parser.EventStmt
	aliases []string // lower-cased, one per sequence element
	schema  relation.Schema

	// plainFilters[i] are the WHERE conjuncts that reference only the alias
	// of sequence element i; failing one filters the event from the input
	// stream (it never reaches the NFA).
	plainFilters [][]*boundExpr
	// quantified predicates, checked per matching event (FORALL) or at
	// accept time (EXISTS).
	quants []quantPred
	// returnAt[g] is the sequence position whose events trigger emission
	// of RETURN group g (the maximum position referenced by the group), and
	// returns[g] holds that group's items.
	returnAt []int
	returns  [][]*boundExpr

	// runtime state
	active   bool
	state    int // index of the last matched sequence element
	bindings map[string]Event
	exists   []bool // satisfied flags for EXISTS quantifiers
	env      expr.Env
}

type quantPred struct {
	forall  bool
	varName string // lower-cased
	overPos int
	cond    *boundExpr
	index   int // position within Recognizer.exists for EXISTS
}

// boundExpr is an expression compiled once against a row of the alias.attr
// columns it references; each evaluation first fills that row from the
// events bound at the time.
type boundExpr struct {
	src    expr.Expr
	cols   []relation.Column // one per row slot: lower-cased alias, attribute
	labels []string          // each slot's reference as written, for errors
	run    expr.Compiled
	row    relation.Tuple
}

// bindEventExpr compiles e against the distinct alias.attr columns it
// references. Aliases match case-insensitively, attributes exactly.
func bindEventExpr(e expr.Expr, funcs *expr.Registry) *boundExpr {
	b := &boundExpr{src: e}
	for _, c := range expr.Columns(e) {
		col := relation.Column{Qualifier: strings.ToLower(c.Qualifier), Name: c.Name}
		if !slices.Contains(b.cols, col) {
			b.cols = append(b.cols, col)
			b.labels = append(b.labels, c.String())
		}
	}
	b.run = expr.Bind(e, &expr.BindContext{Schema: relation.NewSchema(b.cols...), Funcs: funcs})
	b.row = make(relation.Tuple, len(b.cols))
	return b
}

// Compile validates an EVENT statement and builds its recognizer.
func Compile(stmt *parser.EventStmt, funcs *expr.Registry) (*Recognizer, error) {
	if len(stmt.Seq) == 0 {
		return nil, fmt.Errorf("event %s: empty sequence", stmt.Name)
	}
	if stmt.Seq[len(stmt.Seq)-1].Kleene {
		// §2.1.2: sequences must end with a non-repeating event so the NFA
		// transitions to accept exactly once (no never-ending transactions).
		return nil, fmt.Errorf("event %s: sequence must end with a non-repeating event", stmt.Name)
	}
	aliasPos := map[string]int{}
	var aliases []string
	for i, el := range stmt.Seq {
		key := strings.ToLower(el.Alias)
		if _, dup := aliasPos[key]; dup {
			return nil, fmt.Errorf("event %s: duplicate alias %q", stmt.Name, el.Alias)
		}
		aliasPos[key] = i
		aliases = append(aliases, key)
	}
	if len(stmt.Return) == 0 {
		return nil, fmt.Errorf("event %s: RETURN requires at least one group", stmt.Name)
	}
	arity := len(stmt.Return[0])
	for g, group := range stmt.Return {
		if len(group) != arity {
			return nil, fmt.Errorf("event %s: RETURN group %d has arity %d, want %d (groups must be union compatible)",
				stmt.Name, g+1, len(group), arity)
		}
	}

	r := &Recognizer{stmt: stmt, aliases: aliases, state: -1}

	// Output schema from the first group's names.
	cols := make([]relation.Column, arity)
	for i, item := range stmt.Return[0] {
		cols[i] = relation.Col(item.OutName(), relation.KindNull)
	}
	r.schema = relation.NewSchema(cols...)

	// Classify WHERE predicates.
	r.plainFilters = make([][]*boundExpr, len(stmt.Seq))
	for _, f := range stmt.Filters {
		if f.Quant == parser.QuantNone {
			pos, err := singleAliasOf(f.Cond, aliasPos)
			if err != nil {
				return nil, fmt.Errorf("event %s: %w", stmt.Name, err)
			}
			r.plainFilters[pos] = append(r.plainFilters[pos], bindEventExpr(f.Cond, funcs))
			continue
		}
		pos, ok := aliasPos[strings.ToLower(f.Over)]
		if !ok {
			return nil, fmt.Errorf("event %s: quantifier over unknown alias %q", stmt.Name, f.Over)
		}
		q := quantPred{
			forall:  f.Quant == parser.QuantForall,
			varName: strings.ToLower(f.Var),
			overPos: pos,
			cond:    bindEventExpr(f.Cond, funcs),
		}
		if !q.forall {
			q.index = len(r.exists)
			r.exists = append(r.exists, false)
		}
		r.quants = append(r.quants, q)
	}

	// Emission positions per RETURN group.
	r.returnAt = make([]int, len(stmt.Return))
	r.returns = make([][]*boundExpr, len(stmt.Return))
	for g, group := range stmt.Return {
		maxPos := -1
		for _, item := range group {
			r.returns[g] = append(r.returns[g], bindEventExpr(item.Expr, funcs))
			for _, c := range expr.Columns(item.Expr) {
				if c.Qualifier == "" {
					continue
				}
				pos, ok := aliasPos[strings.ToLower(c.Qualifier)]
				if !ok {
					return nil, fmt.Errorf("event %s: RETURN references unknown alias %q", stmt.Name, c.Qualifier)
				}
				if pos > maxPos {
					maxPos = pos
				}
			}
		}
		if maxPos < 0 {
			// Constant-only group: fires on the first element.
			maxPos = 0
		}
		r.returnAt[g] = maxPos
	}
	return r, nil
}

// singleAliasOf checks that a plain predicate references exactly one
// sequence alias (per the paper, plain predicates are per-event filters).
func singleAliasOf(e expr.Expr, aliasPos map[string]int) (int, error) {
	pos := -1
	for _, c := range expr.Columns(e) {
		if c.Qualifier == "" {
			return 0, fmt.Errorf("per-event predicate %s must qualify columns with an event alias", e.String())
		}
		p, ok := aliasPos[strings.ToLower(c.Qualifier)]
		if !ok {
			return 0, fmt.Errorf("predicate references unknown alias %q", c.Qualifier)
		}
		if pos >= 0 && p != pos {
			return 0, fmt.Errorf("per-event predicate %s spans multiple aliases; use FORALL/EXISTS for cross-event conditions", e.String())
		}
		pos = p
	}
	if pos < 0 {
		return 0, fmt.Errorf("predicate %s references no event alias", e.String())
	}
	return pos, nil
}

// Name returns the compound event table's name.
func (r *Recognizer) Name() string { return r.stmt.Name }

// Schema returns the compound event table's schema (from the first RETURN
// group).
func (r *Recognizer) Schema() relation.Schema { return r.schema }

// Active reports whether an interaction transaction is in flight.
func (r *Recognizer) Active() bool { return r.active }

// FirstType returns the event type that starts the pattern; the engine's
// static analysis uses it to flag ambiguous interaction pairs.
func (r *Recognizer) FirstType() string { return r.stmt.Seq[0].Type }

// Reset aborts any in-flight match and returns to the idle state.
func (r *Recognizer) Reset() {
	r.active = false
	r.state = -1
	r.bindings = nil
	for i := range r.exists {
		r.exists[i] = false
	}
}

// Feed advances the NFA with one low-level event. See Actions for what the
// caller must apply to storage. Feed is deterministic: identical event
// streams produce identical action sequences.
func (r *Recognizer) Feed(ev Event) (Actions, error) {
	var acts Actions

	pos, ok := r.matchPosition(ev)
	if !ok {
		acts.Filtered = true
		return acts, nil
	}
	// Per-event plain filters: failure drops the event from the stream
	// before the NFA sees it (§2.1.2).
	passed, err := r.passesPlainFilters(pos, ev)
	if err != nil {
		return acts, err
	}
	if !passed {
		acts.Filtered = true
		return acts, nil
	}

	if !r.active {
		r.active = true
		r.bindings = make(map[string]Event, len(r.stmt.Seq))
		for i := range r.exists {
			r.exists[i] = false
		}
		acts.Began = true
	}

	r.state = pos
	r.bindings[r.aliases[pos]] = ev

	// Quantified predicates over this position.
	for qi := range r.quants {
		q := &r.quants[qi]
		if q.overPos != pos {
			continue
		}
		holds, err := r.evalQuant(q, ev)
		if err != nil {
			return acts, err
		}
		if q.forall && !holds {
			// Reject state: abort the interaction transaction.
			r.Reset()
			acts.Aborted = true
			return acts, nil
		}
		if !q.forall && holds {
			r.exists[q.index] = true
		}
	}

	// Emit RETURN groups anchored at this position.
	for g, at := range r.returnAt {
		if at != pos {
			continue
		}
		row, err := r.evalGroup(g)
		if err != nil {
			return acts, err
		}
		acts.Rows = append(acts.Rows, row)
	}

	// Accept?
	if pos == len(r.stmt.Seq)-1 {
		for qi := range r.quants {
			q := &r.quants[qi]
			if !q.forall && !r.exists[q.index] {
				r.Reset()
				acts.Aborted = true
				return acts, nil
			}
		}
		r.Reset()
		acts.Committed = true
	}
	return acts, nil
}

// matchPosition finds the sequence position this event matches given the
// current state. Candidates are: the current element again if it is Kleene
// (self-loop), then subsequent elements, where Kleene elements may be
// skipped (zero repetitions) but the first non-Kleene element is a barrier.
// Events matching no candidate are filtered.
func (r *Recognizer) matchPosition(ev Event) (int, bool) {
	var start int
	switch {
	case !r.active:
		start = 0
	case r.stmt.Seq[r.state].Kleene:
		start = r.state
	default:
		start = r.state + 1
	}
	for i := start; i < len(r.stmt.Seq); i++ {
		if r.stmt.Seq[i].Type == ev.Type {
			return i, true
		}
		if !r.stmt.Seq[i].Kleene {
			break // a required element cannot be skipped
		}
	}
	return 0, false
}

func (r *Recognizer) passesPlainFilters(pos int, ev Event) (bool, error) {
	for _, f := range r.plainFilters[pos] {
		v, err := r.eval(f, r.aliases[pos], ev)
		if err != nil {
			return false, fmt.Errorf("event %s filter %s: %w", r.stmt.Name, f.src.String(), err)
		}
		if v.IsNull() || !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

func (r *Recognizer) evalQuant(q *quantPred, ev Event) (bool, error) {
	v, err := r.eval(q.cond, q.varName, ev)
	if err != nil {
		return false, fmt.Errorf("event %s quantifier %s: %w", r.stmt.Name, q.cond.src.String(), err)
	}
	return !v.IsNull() && v.Truthy(), nil
}

func (r *Recognizer) evalGroup(g int) (relation.Tuple, error) {
	items := r.returns[g]
	row := make(relation.Tuple, len(items))
	for i, item := range items {
		v, err := r.eval(item, "", Event{})
		if err != nil {
			return nil, fmt.Errorf("event %s RETURN item %s: %w", r.stmt.Name, item.src.String(), err)
		}
		row[i] = v
	}
	return row, nil
}

// eval fills b's row and runs it. A column's alias resolves to ev when it
// names varName (a quantifier variable, or the alias a plain filter reads),
// and otherwise to the event bound to that sequence alias; a bare column,
// an unbound alias, or an attribute the event lacks is an unknown column.
func (r *Recognizer) eval(b *boundExpr, varName string, ev Event) (relation.Value, error) {
	for i, c := range b.cols {
		src, ok := ev, c.Qualifier != "" && c.Qualifier == varName
		if !ok {
			src, ok = r.bindings[c.Qualifier]
		}
		var v relation.Value
		if ok {
			v, ok = src.Attr(c.Name)
		}
		if !ok {
			return relation.Null(), fmt.Errorf("unknown column %s", b.labels[i])
		}
		b.row[i] = v
	}
	r.env.Row = b.row
	return b.run(&r.env)
}

package exec

// The delta stream. A join (or filter/project chain) that materialized its
// output delta would build every intermediate concatenated tuple as a
// []Value only for the aggregate above it to immediately fold each row into
// a group accumulator and drop it. So delta operators never materialize:
// each pushes its output delta row-by-row into a sink (dnode.apply), and the
// consumer decides what to keep. Steady-state brush cost on the non-cube
// delta path is dominated by exactly this join→aggregate hand-off.
//
// Late materialization: a sink receives the logical row as two segments
// (l, r) whose concatenation is the row; r is nil when the producer holds a
// whole row. A join emits its stored side tuples by reference instead of
// copying them into a concatenated scratch — consumers that only index
// bare columns (filter kernels, bare group keys and aggregate arguments)
// never touch the memory between; only closure-evaluated expressions force
// a concatenation.
//
// Segments follow the package-wide immutability rule: a producer never
// overwrites a tuple it has pushed, so a consumer may retain a whole row by
// reference and needs a copy only to join two segments (valueArena.concat).

import (
	"fmt"

	"repro/internal/relation"
)

// ExecStats counts the delta rows aggregates consumed straight from their
// child's stream. Priming is not counted: the counters describe per-event
// work. They are updated with atomics: shared-side subtrees are advanced by
// the server's writer under the group lock while sessions drain their stats
// under the engine lock.
type ExecStats struct {
	BatchRows    int64 // change rows streamed into aggregate accumulators
	FusedApplies int64 // non-empty delta applications an aggregate consumed
	RowFallbacks int64 // always 0: the row-at-a-time aggregate arm is gone; the benchmark's path guard still reads it
}

// deltaSink consumes one output-delta row with a sign (+1 insert, -1
// delete). The logical row is the concatenation of l and r; r is nil when
// the producer already holds the whole row in l.
type deltaSink func(l, r relation.Tuple, sign int) error

// splitCol indexes the logical concatenation of l and r.
func splitCol(l, r relation.Tuple, idx int) relation.Value {
	if idx < len(l) {
		return l[idx]
	}
	return r[idx-len(l)]
}

// concatInto materializes the logical row into dst (grown as needed) and
// returns it: private scratch for closure-evaluated expressions that need
// env.Row, overwritten by the next row.
func concatInto(dst, l, r relation.Tuple) relation.Tuple {
	dst = append(dst[:0], l...)
	return append(dst, r...)
}

// concat returns the logical row as one tuple the caller may retain: l
// itself when the producer held a whole row, else a fresh concatenation.
func (a *valueArena) concat(l, r relation.Tuple) relation.Tuple {
	if r == nil {
		return l
	}
	t := a.alloc(len(l) + len(r))
	copy(t[copy(t, l):], r)
	return t
}

// accumulateSplit is accumulate for a split row whose grouping keys and
// aggregate arguments are all bare columns: group key and argument reads
// are slice indexes into the segments, and the concatenation happens only
// on group birth (the representative must outlive the call anyway).
func (d *dAggregate) accumulateSplit(key relation.Tuple, l, r relation.Tuple, sign int) error {
	prog := d.prog()
	var grp *dgroup
	var born bool
	if d.g1 != nil {
		// Single bare key: look up by the normalized value directly —
		// writing the key into the (heap) scratch tuple per row costs a GC
		// write barrier on the Value's string field, which dominates the
		// loop. The tuple is only filled on group birth.
		v := splitCol(l, r, prog.groupCols[0])
		k := v.Key()
		if grp = d.g1[k]; grp == nil {
			if sign < 0 {
				return fmt.Errorf("aggregate state: delete for a group never seen")
			}
			key[0] = v
			grp, born = d.newGroup(0, key), true
			d.g1[k] = grp
		}
		d.touch(grp)
	} else {
		for gi := range prog.groupBy {
			key[gi] = splitCol(l, r, prog.groupCols[gi])
		}
		var err error
		if grp, born, err = d.locate(key, sign); err != nil {
			return err
		}
	}
	if born {
		grp.rep = append(append(make(relation.Tuple, 0, len(l)+len(r)), l...), r...)
	}
	grp.rows += int64(sign)
	for si := range prog.specs {
		sp := &prog.specs[si]
		if sp.arg == nil { // count(*)
			continue
		}
		v := splitCol(l, r, sp.argCol)
		if sign > 0 {
			grp.states[si].add(v)
		} else if err := grp.states[si].remove(v); err != nil {
			return err
		}
	}
	return nil
}

package relation

// Columnar batches. A Batch is a column-oriented view of a block of rows:
// each column's values live in one typed slice ([]int64, []float64,
// []string) with a null bitmap, so the executor's inner loops (filter
// predicates, aggregate accumulation, cube tile builds) can run tight
// monomorphic loops instead of per-value interface dispatch over Tuple
// ([]Value) rows. A selection bitmap marks the rows that survive a filter
// without compacting the columns.
//
// Batches convert to and from the Tuple bags the rest of the system speaks,
// so adoption is incremental: an operator that understands batches converts
// once at its input boundary and hands rows onward unchanged.

// Bitmap is a dense bitset over row indices, used for both null masks and
// selection vectors. The zero value (nil) is a valid empty bitmap whose
// bits all read as unset.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n bits, all unset.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports bit i. Out-of-range bits read as unset.
func (m Bitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(m) {
		return false
	}
	return m[w]&(1<<uint(i&63)) != 0
}

// Set sets bit i. The bit must be within the bitmap's capacity.
func (m Bitmap) Set(i int) { m[i>>6] |= 1 << uint(i&63) }

// BatchCol is one column of a Batch. Kind tells which slice holds the payload:
// KindInt → Ints, KindFloat → Floats, KindString → Strs; any column that is
// not uniformly one of those kinds (bools, mixed int/float, all-null) keeps
// its values in Mixed and kernels fall back to Value semantics. Null rows
// are flagged in Nulls and hold zero payloads in the typed slice.
type BatchCol struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Mixed  []Value
	Nulls  Bitmap // nil when the column has no NULLs
	HasNul bool
}

// Null reports whether row i of the column is NULL.
func (c *BatchCol) Null(i int) bool { return c.HasNul && c.Nulls.Get(i) }

// Value reconstructs row i of the column as a Value.
func (c *BatchCol) Value(i int) Value {
	if c.Null(i) {
		return Null()
	}
	switch c.Kind {
	case KindInt:
		return Int(c.Ints[i])
	case KindFloat:
		return Float(c.Floats[i])
	case KindString:
		return String(c.Strs[i])
	default:
		return c.Mixed[i]
	}
}

// Batch is a column-oriented block of rows plus a selection bitmap. Sel nil
// means every row is selected. Rows retains the source tuples so consumers
// that need full rows (group representatives, join probes) can reference
// them without reconstructing values.
type Batch struct {
	N    int
	Cols []BatchCol
	Sel  Bitmap // nil = all rows selected
	Rows []Tuple
}

// colFromTuples extracts column idx of rows into typed form. One pass
// detects the uniform kind; a second fills the typed slice. Mixed columns
// pay one extra Value copy per row and no more.
func colFromTuples(rows []Tuple, idx int) BatchCol {
	n := len(rows)
	c := BatchCol{Kind: KindNull}
	kind, uniform := KindNull, true
	for _, t := range rows {
		k := t[idx].kind
		if k == KindNull {
			c.HasNul = true
			continue
		}
		if kind == KindNull {
			kind = k
		} else if kind != k {
			uniform = false
			break
		}
	}
	if !uniform || kind == KindNull || kind == KindBool {
		c.Mixed = make([]Value, n)
		for i, t := range rows {
			c.Mixed[i] = t[idx]
		}
		// Null() reads back from Mixed directly; no bitmap needed.
		c.HasNul = false
		return c
	}
	c.Kind = kind
	if c.HasNul {
		c.Nulls = NewBitmap(n)
	}
	switch kind {
	case KindInt:
		c.Ints = make([]int64, n)
		for i, t := range rows {
			if v := t[idx]; v.kind == KindNull {
				c.Nulls.Set(i)
			} else {
				c.Ints[i] = v.i
			}
		}
	case KindFloat:
		c.Floats = make([]float64, n)
		for i, t := range rows {
			if v := t[idx]; v.kind == KindNull {
				c.Nulls.Set(i)
			} else {
				c.Floats[i] = v.f
			}
		}
	case KindString:
		c.Strs = make([]string, n)
		for i, t := range rows {
			if v := t[idx]; v.kind == KindNull {
				c.Nulls.Set(i)
			} else {
				c.Strs[i] = v.s
			}
		}
	}
	return c
}

// FromTuples builds a Batch over rows, extracting only the columns listed
// in need (all columns when need is nil). Unlisted columns stay zero-valued
// in Cols; row-level access goes through Rows. width is the row arity.
func FromTuples(rows []Tuple, width int, need []int) *Batch {
	b := &Batch{N: len(rows), Cols: make([]BatchCol, width), Rows: rows}
	if need == nil {
		for i := 0; i < width; i++ {
			b.Cols[i] = colFromTuples(rows, i)
		}
		return b
	}
	for _, i := range need {
		if i >= 0 && i < width && b.Cols[i].Mixed == nil && b.Cols[i].Kind == KindNull && b.Cols[i].Ints == nil {
			b.Cols[i] = colFromTuples(rows, i)
		}
	}
	return b
}

// Selected reports whether row i passes the selection bitmap.
func (b *Batch) Selected(i int) bool {
	return b.Sel == nil || b.Sel.Get(i)
}

// Tuples appends the selected rows to dst as tuples, preferring the
// retained source rows and reconstructing from columns otherwise.
func (b *Batch) Tuples(dst []Tuple) []Tuple {
	for i := 0; i < b.N; i++ {
		if !b.Selected(i) {
			continue
		}
		if b.Rows != nil {
			dst = append(dst, b.Rows[i])
			continue
		}
		t := make(Tuple, len(b.Cols))
		for ci := range b.Cols {
			t[ci] = b.Cols[ci].Value(i)
		}
		dst = append(dst, t)
	}
	return dst
}

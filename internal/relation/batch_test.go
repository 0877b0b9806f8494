package relation

import (
	"testing"
)

func TestBitmap(t *testing.T) {
	m := NewBitmap(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		if m.Get(i) {
			t.Fatalf("fresh bitmap has bit %d set", i)
		}
		m.Set(i)
		if !m.Get(i) {
			t.Fatalf("bit %d did not stick", i)
		}
	}
	// A nil bitmap reads as empty; out-of-range bits read as unset.
	var nilMap Bitmap
	if nilMap.Get(5) || m.Get(1<<20) {
		t.Fatal("out-of-range / nil bitmap bits should read unset")
	}
}

// batchRows mixes the kinds and NULL placements the converter has to handle.
func batchRows() []Tuple {
	return []Tuple{
		{Int(3), Float(1.5), String("x"), Bool(true), Int(7)},
		{Int(-1), Float(-2.25), String(""), Bool(false), Float(0.5)},
		{Null(), Null(), Null(), Null(), Null()},
		{Int(1 << 40), Float(3), String("zz"), Bool(true), String("mixed")},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rows := batchRows()
	b := FromTuples(rows, len(rows[0]), nil)
	if b.N != len(rows) {
		t.Fatalf("N = %d, want %d", b.N, len(rows))
	}
	// Typed columns for uniform int/float/string, Mixed for bool and the
	// int/float/string blend in column 4.
	if b.Cols[0].Kind != KindInt || b.Cols[1].Kind != KindFloat || b.Cols[2].Kind != KindString {
		t.Fatalf("uniform columns not typed: kinds %v %v %v", b.Cols[0].Kind, b.Cols[1].Kind, b.Cols[2].Kind)
	}
	if b.Cols[3].Mixed == nil || b.Cols[4].Mixed == nil {
		t.Fatal("bool and mixed-kind columns should fall back to Mixed")
	}
	for ci := range b.Cols {
		for i, row := range rows {
			got, want := b.Cols[ci].Value(i), row[ci]
			if got.Compare(want) != 0 || got.IsNull() != want.IsNull() {
				t.Fatalf("col %d row %d = %v, want %v", ci, i, got, want)
			}
		}
	}
	// Null bookkeeping on a typed column.
	if !b.Cols[0].Null(2) || b.Cols[0].Null(0) {
		t.Fatal("null bitmap wrong on typed column")
	}

	// All selected by default; Tuples returns the retained source rows.
	out := b.Tuples(nil)
	if len(out) != len(rows) {
		t.Fatalf("Tuples returned %d rows, want %d", len(out), len(rows))
	}
	for i := range out {
		if !out[i].Equal(rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, out[i], rows[i])
		}
	}
}

func TestBatchSelection(t *testing.T) {
	rows := batchRows()
	b := FromTuples(rows, len(rows[0]), []int{0})
	b.Sel = NewBitmap(b.N)
	b.Sel.Set(1)
	b.Sel.Set(3)
	out := b.Tuples(nil)
	if len(out) != 2 || !out[0].Equal(rows[1]) || !out[1].Equal(rows[3]) {
		t.Fatalf("selected tuples = %v", out)
	}
	// Only the needed column was extracted.
	if b.Cols[0].Ints == nil {
		t.Fatal("needed column not extracted")
	}
	if b.Cols[2].Strs != nil || b.Cols[2].Mixed != nil {
		t.Fatal("unneeded column was extracted")
	}
}

func TestBatchReconstructsWithoutRows(t *testing.T) {
	rows := batchRows()
	b := FromTuples(rows, len(rows[0]), nil)
	b.Rows = nil // force value reconstruction
	out := b.Tuples(nil)
	for i := range rows {
		if len(out[i]) != len(rows[i]) {
			t.Fatalf("row %d arity %d, want %d", i, len(out[i]), len(rows[i]))
		}
		for ci := range rows[i] {
			if out[i][ci].Compare(rows[i][ci]) != 0 {
				t.Fatalf("row %d col %d = %v, want %v", i, ci, out[i][ci], rows[i][ci])
			}
		}
	}
}

func TestBatchAllNullColumn(t *testing.T) {
	rows := []Tuple{{Null()}, {Null()}}
	b := FromTuples(rows, 1, nil)
	for i := range rows {
		if !b.Cols[0].Value(i).IsNull() {
			t.Fatalf("row %d should be NULL", i)
		}
	}
}

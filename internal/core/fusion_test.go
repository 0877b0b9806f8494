package core

// Engine-level coverage for the streamed aggregate path: the default
// configuration must actually fold aggregate deltas straight from the child
// stream (fused applies counted, no row fallbacks), and must agree with a
// full-recompute oracle event for event across inserts, deletes, brush
// moves, and undo.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// fusionProgram is a crossfilter-shaped program: AGG aggregates over a
// fact⋈selection join (the shape the fused join→aggregate rule targets) and
// FILT aggregates over a predicate filter (the filter→aggregate rule). AGG's
// max(...) does not decompose over cube bins, which keeps it off the index
// tiles and on the fused path.
const fusionProgram = `
CREATE TABLE Fact (bin int, grp string, val int);
INSERT INTO Fact VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30), (1, 'b', 40);
CREATE TABLE Sel (bin int);
INSERT INTO Sel VALUES (1), (2);
AGG = SELECT f.grp AS grp, count(*) AS n, sum(f.val) AS s, max(f.val) AS hi FROM Fact AS f, Sel AS sl WHERE f.bin = sl.bin GROUP BY f.grp;
FILT = SELECT grp, count(*) AS n, sum(val) AS s FROM Fact WHERE bin > 1 GROUP BY grp;
`

func fusionArm(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.LoadProgram(fusionProgram); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFusionPathActuallyUsed pins that the default engine streams its
// aggregate applies through the fused path: fused applies accumulate, batch
// rows are counted, no move is answered from tiles, and the row fallback
// counter stays at zero.
func TestFusionPathActuallyUsed(t *testing.T) {
	e := fusionArm(t, Config{})
	for i := 0; i < 10; i++ {
		ins := fmt.Sprintf("INSERT INTO Fact VALUES (%d, 'a', %d)", i%6, i*10)
		if err := e.Exec(ins); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Exec("DELETE FROM Fact WHERE val = 40"); err != nil {
		t.Fatal(err)
	}
	// Brush move: replace the selection.
	if err := e.Exec("DELETE FROM Sel WHERE bin = 2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("INSERT INTO Sel VALUES (3)"); err != nil {
		t.Fatal(err)
	}
	st := e.StatsSnapshot()
	if st.Exec.FusedApplies == 0 || st.Exec.BatchRows == 0 {
		t.Fatalf("fused path unused: %+v", st.Exec)
	}
	if st.Cube.Hits != 0 {
		t.Fatalf("fusion program answered %d moves from tiles", st.Cube.Hits)
	}
	if st.Exec.RowFallbacks != 0 {
		t.Fatalf("default engine took %d row fallbacks: %+v", st.Exec.RowFallbacks, st.Exec)
	}
	if st.FullFallbacks != 0 {
		t.Fatalf("crossfilter program should stay on the delta path (%d full fallbacks)", st.FullFallbacks)
	}
}

// TestFusionEngineParity drives the delta pipeline (default) and a
// RecomputeAll oracle through one identical randomized event stream and
// checks both views agree after every event, including through an Undo.
func TestFusionEngineParity(t *testing.T) {
	fused := fusionArm(t, Config{})
	oracle := fusionArm(t, Config{RecomputeAll: true})
	arms := []*Engine{fused, oracle}

	rng := rand.New(rand.NewSource(41))
	check := func(step int, what string) {
		t.Helper()
		for _, view := range []string{"AGG", "FILT"} {
			want, err := oracle.Relation(view)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fused.Relation(view)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(got, want) {
				t.Fatalf("step %d (%s): delta pipeline diverges on %s\ngot:\n%s\nwant:\n%s",
					step, what, view, got, want)
			}
		}
	}
	exec := func(step int, sql string) {
		t.Helper()
		for _, e := range arms {
			if err := e.Exec(sql); err != nil {
				t.Fatalf("step %d: %s: %v", step, sql, err)
			}
		}
		check(step, sql)
	}

	grps := []string{"a", "b", "c"}
	for step := 0; step < 60; step++ {
		switch {
		case step == 20 || step == 40:
			// Commit+Undo rolls every arm back to the previous committed
			// version; the next write re-primes the delta pipeline.
			for _, e := range arms {
				e.Commit()
				if err := e.Undo(); err != nil {
					t.Fatalf("step %d: undo: %v", step, err)
				}
			}
			check(step, "undo")
		case step%7 == 3:
			exec(step, fmt.Sprintf("DELETE FROM Fact WHERE val = %d", rng.Intn(30)*10))
		case step%11 == 5:
			// Brush move: swap one selected bin for another.
			exec(step, fmt.Sprintf("DELETE FROM Sel WHERE bin = %d", rng.Intn(6)))
			exec(step, fmt.Sprintf("INSERT INTO Sel VALUES (%d)", rng.Intn(6)))
		default:
			exec(step, fmt.Sprintf("INSERT INTO Fact VALUES (%d, '%s', %d)",
				rng.Intn(6), grps[rng.Intn(len(grps))], rng.Intn(30)*10))
		}
	}

	if st := fused.StatsSnapshot(); st.Exec.FusedApplies == 0 || st.Exec.RowFallbacks != 0 {
		t.Fatalf("fused arm stats: %+v", st.Exec)
	}
}

package parser

import (
	"strings"
	"testing"
	"testing/quick"
)

// Property: the parser never panics, whatever bytes it is fed — it either
// produces statements or returns an error. DVMS accepts programs from
// hosts, so front-end robustness matters.
func TestParserNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		_, _ = ParseQuery(src)
		_, _ = ParseExpr(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Mutations of a valid program also must not panic, and truncations must
// error rather than mis-parse.
func TestParserTruncationsError(t *testing.T) {
	src := `selected = SELECT DISTINCT SP.productId
  FROM C, SPLOT_POINTS@vnow-1 AS SP
  WHERE in_rectangle(SP.center_x, SP.center_y, 0, 0, (SELECT max(x) FROM C), 100)`
	for cut := 1; cut < len(src); cut += 7 {
		trunc := src[:cut]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", cut, r)
				}
			}()
			_, _ = Parse(trunc)
		}()
	}
	// A fully balanced prefix that is a complete statement still parses.
	if _, err := Parse("x = SELECT 1 AS a"); err != nil {
		t.Fatal(err)
	}
}

// Deeply nested expressions parse without stack trouble at reasonable
// depths.
func TestParserDeepNesting(t *testing.T) {
	depth := 200
	src := strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("nil expression")
	}
	// unbalanced version errors cleanly
	if _, err := ParseExpr(strings.Repeat("(", depth) + "1"); err == nil {
		t.Fatal("unbalanced parens should error")
	}
}

// Keywords are case-insensitive throughout.
func TestKeywordCaseInsensitivity(t *testing.T) {
	variants := []string{
		"x = select a from t where a > 1 group by a having count(*) > 0 order by a limit 1",
		"X = SELECT a FROM t WHERE a > 1 GROUP BY a HAVING count(*) > 0 ORDER BY a LIMIT 1",
		"x = SeLeCt a FrOm t WhErE a > 1 gRoUp By a HaViNg count(*) > 0 oRdEr By a LiMiT 1",
	}
	for _, src := range variants {
		if _, err := Parse(src); err != nil {
			t.Errorf("variant failed: %q: %v", src, err)
		}
	}
}

// FuzzParse: no input panics the program parser or the query parser. Any
// client reaches ParseQuery through the protocol's query op, and a hosted
// program through Parse.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`CREATE TABLE Sales (productId int, price float, productName string);
INSERT INTO Sales VALUES (1, 40.5, 'anvil'), (2, -55, 'brush');
DELETE FROM Sales WHERE price > 50;`,
		`C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M*, MOUSE_UP AS U
    WHERE FORALL m IN M m.y > 5
    RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy), (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);`,
		`selected = SELECT DISTINCT SP.productId FROM C, SPLOT_POINTS@vnow-1 AS SP
  WHERE in_rectangle(SP.center_x, SP.center_y, (SELECT min(x) FROM C), 0, (SELECT max(x + dx) FROM C), 100);`,
		`P = render(SELECT x, y, width, height, fill FROM BARS, 'rect');`,
		`T = BACKWARD TRACE P FROM Sales WHERE x > 1;`,
		`SELECT s.region, sum(s.revenue) AS total FROM Sales AS s WHERE s.month IN (SELECT month FROM sel)
  GROUP BY s.region HAVING count(*) > 1 ORDER BY total DESC LIMIT 5`,
		`SELECT CASE WHEN a IS NULL THEN 'x' ELSE upper(b) END AS c FROM T@tnow-2 UNION ALL SELECT 'y' AS c`,
		`-- comment
x = SELECT 1 AS a;`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
		_, _ = ParseQuery(src)
	})
}

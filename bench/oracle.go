package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/relation"
)

// The oracle is an independent reference for the FILT_* charts: a plain
// group-by over the generated tuples, sharing nothing with the engine but
// the input rows. Answers are checked against it at every warm-up MOUSE_UP,
// every verifyEvery-th timed drag, after every undo and after a resume.

type salesRow struct {
	orderID, year, month, weekday, revenue int64
	region, segment                        string
}

// generateRows is the benchmark's input: the rows dvms-serve generates for
// itself under -workload ivm with the same n and seed.
func generateRows(n int, seed int64) []salesRow {
	tuples := experiments.IVMSalesTuples(n, seed)
	rows := make([]salesRow, len(tuples))
	asInt := func(v relation.Value) int64 { i, _ := v.AsInt(); return i }
	for i, t := range tuples {
		rows[i] = salesRow{
			orderID: asInt(t[0]), region: t[1].AsString(), segment: t[2].AsString(),
			year: asInt(t[3]), month: asInt(t[4]), weekday: asInt(t[5]), revenue: asInt(t[6]),
		}
	}
	return rows
}

// cell is one output row of a FILT_* chart, without its group key.
type cell struct{ total, n, peak int64 }

func (c *cell) add(o cell) {
	c.total += o.total
	c.n += o.n
	c.peak = max(c.peak, o.peak)
}

var oracleDims = []string{"region", "segment", "month", "weekday"}

// oracle holds, per chart dimension and group key, the per-month partials;
// a brush over months lo..hi is their sum. Revenue is positive, so a zero
// peak means no rows.
type oracle struct {
	byMonth map[string]map[string]*[13]cell
	regions map[string]cell // whole-table totals per region, for the ad-hoc group-by
}

func newOracle(rows []salesRow) *oracle {
	o := &oracle{byMonth: map[string]map[string]*[13]cell{}, regions: map[string]cell{}}
	for _, d := range oracleDims {
		o.byMonth[d] = map[string]*[13]cell{}
	}
	for _, r := range rows {
		one := cell{total: r.revenue, n: 1, peak: r.revenue}
		keys := [...]string{r.region, r.segment, strconv.FormatInt(r.month, 10), strconv.FormatInt(r.weekday, 10)}
		for i, d := range oracleDims {
			cells := o.byMonth[d][keys[i]]
			if cells == nil {
				cells = new([13]cell)
				o.byMonth[d][keys[i]] = cells
			}
			cells[r.month].add(one)
		}
		reg := o.regions[r.region]
		reg.add(one)
		o.regions[r.region] = reg
	}
	return o
}

// expect is FILT_<dim> under a brush selecting months lo..hi.
func (o *oracle) expect(dim string, lo, hi int) map[string]cell {
	out := map[string]cell{}
	for key, cells := range o.byMonth[dim] {
		var c cell
		for m := lo; m <= hi; m++ {
			c.add(cells[m])
		}
		if c.n > 0 {
			out[key] = c
		}
	}
	return out
}

// relationReply is the part of a relation/query response the oracle reads.
type relationReply struct {
	OK      bool                `json:"ok"`
	Error   string              `json:"error"`
	Columns []string            `json:"columns"`
	Rows    [][]json.RawMessage `json:"rows"`
}

// checkGroups compares a response of (grp, total, n[, peak]) rows with the
// expected groups, order-insensitively and exactly.
func checkGroups(resp []byte, want map[string]cell) error {
	var r relationReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	if !r.OK {
		return fmt.Errorf("error response: %s", r.Error)
	}
	if len(r.Rows) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(r.Rows), len(want))
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if len(row) < 3 {
			return fmt.Errorf("row of %d columns", len(row))
		}
		var key string
		if err := json.Unmarshal(row[0], &key); err != nil {
			key = string(row[0]) // integer group key
		}
		w, ok := want[key]
		if !ok || seen[key] {
			return fmt.Errorf("unexpected or repeated group %q", key)
		}
		seen[key] = true
		got := cell{peak: w.peak}
		dst := []*int64{&got.total, &got.n, &got.peak}
		for i := 1; i < len(row) && i <= len(dst); i++ {
			v, err := strconv.ParseInt(string(row[i]), 10, 64)
			if err != nil {
				return fmt.Errorf("group %q column %d: %v", key, i, err)
			}
			*dst[i-1] = v
		}
		if got != w {
			return fmt.Errorf("group %q = %+v, want %+v", key, got, w)
		}
	}
	return nil
}

// checkRowCount verifies only the size of a query's answer.
func checkRowCount(resp []byte, want int) error {
	var r relationReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	if !r.OK || len(r.Rows) != want {
		return fmt.Errorf("ok=%v with %d rows, want %d", r.OK, len(r.Rows), want)
	}
	return nil
}

// Package workload generates the deterministic synthetic workloads that
// stand in for the paper's external data sources:
// a TPC-H-like Sales table for the Figure 1 crossfilter example, kinematic
// mouse traces for the §3.3 intent model, latency distributions for the
// §3.2 user study, and an SDSS-like SQL query log for §3.4.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Regions used by the revenue breakdown example.
var Regions = []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDEAST"}

// Segments used by the second categorical chart of Figure 1.
var Segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

// SalesRow is one order-line of the TPC-H-like workload: the dimensions of
// the Figure 1 crossfilter charts plus the revenue measure.
type SalesRow struct {
	OrderID int
	Region  string
	Segment string
	Year    int
	Month   int // 1..12
	Weekday int // 0..6 (0 = Monday, as a label index)
	Revenue float64
}

// Sales generates n deterministic order lines spanning years 1995-1998 with
// region/segment/seasonal skew so the grouped charts have visible structure.
func Sales(n int, seed int64) []SalesRow {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SalesRow, n)
	for i := range out {
		year := 1995 + rng.Intn(4)
		month := 1 + rng.Intn(12)
		weekday := rng.Intn(7)
		region := Regions[skewedIndex(rng, len(Regions))]
		segment := Segments[rng.Intn(len(Segments))]
		// Base revenue with yearly growth, December uplift, and weekday dip.
		base := 100 + rng.Float64()*900
		growth := 1 + 0.15*float64(year-1995)
		seasonal := 1.0
		if month == 12 {
			seasonal = 1.4
		}
		weekend := 1.0
		if weekday >= 5 {
			weekend = 0.7
		}
		out[i] = SalesRow{
			OrderID: i + 1,
			Region:  region,
			Segment: segment,
			Year:    year,
			Month:   month,
			Weekday: weekday,
			Revenue: math.Round(base*growth*seasonal*weekend*100) / 100,
		}
	}
	return out
}

// skewedIndex biases toward earlier entries (~Zipf-ish), giving the grouped
// bar charts a recognizable shape.
func skewedIndex(rng *rand.Rand, n int) int {
	r := rng.Float64()
	r = r * r
	return int(r * float64(n))
}

// SalesInserts renders the rows as a DeVIL INSERT statement for table Sales
// with schema (orderId int, region string, segment string, year int,
// month int, weekday int, revenue float).
func SalesInserts(rows []SalesRow) string {
	var b strings.Builder
	b.WriteString("INSERT INTO Sales VALUES\n")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "  (%d, '%s', '%s', %d, %d, %d, %g)",
			r.OrderID, r.Region, r.Segment, r.Year, r.Month, r.Weekday, r.Revenue)
	}
	b.WriteString(";\n")
	return b.String()
}

// SalesDDL is the CREATE TABLE statement matching SalesInserts.
const SalesDDL = `CREATE TABLE Sales (orderId int, region string, segment string, year int, month int, weekday int, revenue float);`

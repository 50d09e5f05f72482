package workload

import "repro/internal/dataset"

// The fixtures are the hand-checkable tables the ZQL golden corpus (package
// zexec) runs over; the engine's tests run the corpus's SQL over them too.

// FixtureSales builds a deterministic sales table with known trends:
//
//	product   US sales trend   UK sales trend   US profit trend
//	stapler   up               up               up
//	chair     up               down             down
//	desk      up               down             up
//	table     down             up               down
//	printer   down             down             down
//	lamp      flat             flat             flat
//
// Locations USA / Canada mirror US / UK so Table 3.8-style queries work.
func FixtureSales() *dataset.Table {
	t := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "location", Kind: dataset.KindString},
		{Name: "county", Kind: dataset.KindString},
		{Name: "state", Kind: dataset.KindString},
		{Name: "country", Kind: dataset.KindString},
		{Name: "zip", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "month", Kind: dataset.KindInt},
		{Name: "time", Kind: dataset.KindInt},
		{Name: "weight", Kind: dataset.KindFloat},
		{Name: "size", Kind: dataset.KindFloat},
		{Name: "sales", Kind: dataset.KindFloat},
		{Name: "profit", Kind: dataset.KindFloat},
		{Name: "revenue", Kind: dataset.KindFloat},
	})
	// Products in the order the table above lists them: the row order, the
	// product dictionary and the row-indexed weight and size columns all
	// follow from it, so every call builds the same bytes.
	products := []struct {
		name          string
		sales, profit map[string]float64
	}{
		{"stapler", map[string]float64{"US": 1, "UK": 1}, map[string]float64{"US": 1, "UK": 1}},
		{"chair", map[string]float64{"US": 1, "UK": -1}, map[string]float64{"US": -1, "UK": -1}},
		{"desk", map[string]float64{"US": 1, "UK": -1}, map[string]float64{"US": 1, "UK": 1}},
		{"table", map[string]float64{"US": -1, "UK": 1}, map[string]float64{"US": -1, "UK": -1}},
		{"printer", map[string]float64{"US": -1, "UK": -1}, map[string]float64{"US": -1, "UK": -1}},
		{"lamp", map[string]float64{"US": 0, "UK": 0}, map[string]float64{"US": 0, "UK": 0}},
	}
	baseLoc := map[string]string{"US": "US", "UK": "UK", "USA": "US", "Canada": "UK"}
	row := 0
	for _, p := range products {
		for _, loc := range []string{"US", "UK", "USA", "Canada"} {
			base := baseLoc[loc]
			for year := 2010; year <= 2015; year++ {
				for month := 1; month <= 3; month++ {
					dy := float64(year - 2010)
					sales := 500 + p.sales[base]*dy*50 + float64(month)
					profit := 300 + p.profit[base]*dy*30 + float64(month)
					zip := "02000"
					if loc == "UK" {
						zip = "99000"
					}
					t.AppendRow(
						dataset.SV(p.name), dataset.SV(loc),
						dataset.SV(loc+"-county"), dataset.SV(loc+"-state"), dataset.SV(loc+"-country"),
						dataset.SV(zip),
						dataset.IV(int64(year)), dataset.IV(int64(month)), dataset.IV(int64(year*100+month)),
						dataset.FV(float64((row*7)%100)), dataset.FV(float64((row*13)%50)),
						dataset.FV(sales), dataset.FV(profit), dataset.FV(sales*2),
					)
					row++
				}
			}
		}
	}
	return t
}

// FixtureAirline builds a small airline table whose arrival delays trend by
// a known per-airport slope (JFK 2, SFO 1, ORD -1, LAX -2, ATL 0, in that row
// order) and diverge in December.
func FixtureAirline() *dataset.Table {
	t := dataset.NewTable("airline", []dataset.Field{
		{Name: "airport", Kind: dataset.KindString},
		{Name: "Month", Kind: dataset.KindString},
		{Name: "Day", Kind: dataset.KindInt},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "ArrDelay", Kind: dataset.KindFloat},
		{Name: "DepDelay", Kind: dataset.KindFloat},
		{Name: "WeatherDelay", Kind: dataset.KindFloat},
	})
	airports := []struct {
		name  string
		slope float64
	}{{"JFK", 2}, {"SFO", 1}, {"ORD", -1}, {"LAX", -2}, {"ATL", 0}}
	months := []string{"01", "06", "12"}
	for _, ap := range airports {
		s := ap.slope
		for year := 2010; year <= 2015; year++ {
			for _, m := range months {
				for day := 1; day <= 5; day++ {
					dy := float64(year - 2010)
					arr := 30 + s*dy*5 + float64(day)
					if m == "12" {
						arr += 20 * s // December diverges per airport slope
					}
					t.AppendRow(
						dataset.SV(ap.name), dataset.SV(m), dataset.IV(int64(day)), dataset.IV(int64(year)),
						dataset.FV(arr), dataset.FV(25+s*dy*5), dataset.FV(10+s*dy*2),
					)
				}
			}
		}
	}
	return t
}

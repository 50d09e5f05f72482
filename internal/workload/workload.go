// Package workload generates the synthetic datasets the experiments run on,
// standing in for the paper's data: the 10M-row synthetic sales table, the
// census-income dataset (300k × 40), the airline dataset (15M × 29), and the
// Zillow housing dataset (245k × 15) used in the user study. Generators are
// deterministic in their seed and expose the knobs the experiments sweep:
// row count, group count (distinct Z values × distinct X values), and
// selectivity structure.
//
// Each generator plants per-group trend structure (rising / falling / flat /
// spiked series) so that similarity, representative, and outlier tasks have
// real signal to find, not just noise.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// SalesConfig parameterizes the synthetic sales dataset of Chapter 7
// (product, size, weight, city, country, category, month, year, profit,
// revenue).
type SalesConfig struct {
	Rows     int
	Products int // distinct 'product' values: the Z cardinality experiments sweep
	Years    int // distinct 'year' values: the X cardinality
	Cities   int
	Seed     int64
}

// DefaultSales is a laptop-scale stand-in for the paper's 10M-row table.
func DefaultSales() SalesConfig {
	return SalesConfig{Rows: 200000, Products: 100, Years: 10, Cities: 20, Seed: 1}
}

// trendShape deterministically assigns each group one of four shapes so task
// processors have structure to discover.
func trendShape(group int) (slope float64, spike bool) {
	switch group % 4 {
	case 0:
		return 1, false // rising
	case 1:
		return -1, false // falling
	case 2:
		return 0, false // flat
	default:
		return 0, true // flat with a spike
	}
}

// Sales generates the synthetic sales table.
func Sales(cfg SalesConfig) *dataset.Table {
	if cfg.Products <= 0 || cfg.Years <= 0 || cfg.Cities <= 0 {
		panic(fmt.Sprintf("workload: bad sales config %+v", cfg))
	}
	t := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "category", Kind: dataset.KindString},
		{Name: "city", Kind: dataset.KindString},
		{Name: "country", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "month", Kind: dataset.KindInt},
		{Name: "size", Kind: dataset.KindFloat},
		{Name: "weight", Kind: dataset.KindFloat},
		{Name: "profit", Kind: dataset.KindFloat},
		{Name: "revenue", Kind: dataset.KindFloat},
	})
	rng := rand.New(rand.NewSource(cfg.Seed))
	countries := []string{"US", "UK", "DE", "FR", "IN", "CN", "BR", "JP"}
	for i := 0; i < cfg.Rows; i++ {
		p := rng.Intn(cfg.Products)
		year := rng.Intn(cfg.Years)
		month := 1 + rng.Intn(12)
		slope, spike := trendShape(p)
		base := 100 + float64(p%17)*10
		dy := float64(year) / float64(cfg.Years)
		rev := base + slope*dy*100 + rng.Float64()*10
		if spike && year == cfg.Years/2 {
			rev += 150
		}
		profit := rev*0.3 - slope*dy*20 + rng.Float64()*5
		t.AppendRow(
			dataset.SV(fmt.Sprintf("product%04d", p)),
			dataset.SV(fmt.Sprintf("category%d", p%10)),
			dataset.SV(fmt.Sprintf("city%03d", rng.Intn(cfg.Cities))),
			dataset.SV(countries[p%len(countries)]),
			dataset.IV(int64(2006+year)),
			dataset.IV(int64(month)),
			dataset.FV(float64(rng.Intn(100))),
			dataset.FV(float64(rng.Intn(200))),
			dataset.FV(profit),
			dataset.FV(rev),
		)
	}
	return t
}

// AirlineConfig parameterizes the airline-like dataset.
type AirlineConfig struct {
	Rows     int
	Airports int
	Years    int
	Seed     int64
}

// DefaultAirline is a laptop-scale stand-in for the 15M-row airline data.
func DefaultAirline() AirlineConfig {
	return AirlineConfig{Rows: 200000, Airports: 50, Years: 10, Seed: 2}
}

// Airline generates the airline-like delays table.
func Airline(cfg AirlineConfig) *dataset.Table {
	t := dataset.NewTable("airline", []dataset.Field{
		{Name: "airport", Kind: dataset.KindString},
		{Name: "carrier", Kind: dataset.KindString},
		{Name: "origin_state", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "Month", Kind: dataset.KindString},
		{Name: "Day", Kind: dataset.KindInt},
		{Name: "ArrDelay", Kind: dataset.KindFloat},
		{Name: "DepDelay", Kind: dataset.KindFloat},
		{Name: "WeatherDelay", Kind: dataset.KindFloat},
		{Name: "Distance", Kind: dataset.KindFloat},
	})
	rng := rand.New(rand.NewSource(cfg.Seed))
	carriers := []string{"AA", "UA", "DL", "WN", "B6"}
	names := airportNames(cfg.Airports)
	for i := 0; i < cfg.Rows; i++ {
		a := rng.Intn(cfg.Airports)
		year := rng.Intn(cfg.Years)
		month := 1 + rng.Intn(12)
		slope, spike := trendShape(a)
		dy := float64(year) / float64(cfg.Years)
		dep := 20 + slope*dy*30 + rng.Float64()*8
		arr := dep + rng.Float64()*10 - 3
		weather := 5 + slope*dy*8 + rng.Float64()*4
		if spike && month == 12 {
			weather += 25
		}
		t.AppendRow(
			dataset.SV(names[a]),
			dataset.SV(carriers[a%len(carriers)]),
			dataset.SV(fmt.Sprintf("state%02d", a%20)),
			dataset.IV(int64(2005+year)),
			dataset.SV(fmt.Sprintf("%02d", month)),
			dataset.IV(int64(1+rng.Intn(28))),
			dataset.FV(arr),
			dataset.FV(dep),
			dataset.FV(weather),
			dataset.FV(100+rng.Float64()*2500),
		)
	}
	return t
}

func airportNames(n int) []string {
	known := []string{"JFK", "SFO", "ORD", "LAX", "ATL", "DFW", "DEN", "SEA", "BOS", "MIA"}
	out := make([]string, n)
	for i := range out {
		if i < len(known) {
			out[i] = known[i]
		} else {
			out[i] = fmt.Sprintf("AP%03d", i)
		}
	}
	return out
}

// CensusConfig parameterizes the census-income-like dataset: wide, mostly
// categorical, used by the back-end comparison of Figure 7.5(c).
type CensusConfig struct {
	Rows int
	Seed int64
}

// Census generates the census-like table.
func Census(cfg CensusConfig) *dataset.Table {
	fields := []dataset.Field{
		{Name: "age", Kind: dataset.KindInt},
		{Name: "workclass", Kind: dataset.KindString},
		{Name: "education", Kind: dataset.KindString},
		{Name: "marital_status", Kind: dataset.KindString},
		{Name: "occupation", Kind: dataset.KindString},
		{Name: "relationship", Kind: dataset.KindString},
		{Name: "race", Kind: dataset.KindString},
		{Name: "sex", Kind: dataset.KindString},
		{Name: "native_country", Kind: dataset.KindString},
		{Name: "income_class", Kind: dataset.KindString},
		{Name: "hours_per_week", Kind: dataset.KindInt},
		{Name: "capital_gain", Kind: dataset.KindFloat},
		{Name: "capital_loss", Kind: dataset.KindFloat},
		{Name: "wage_per_hour", Kind: dataset.KindFloat},
	}
	t := dataset.NewTable("census", fields)
	rng := rand.New(rand.NewSource(cfg.Seed))
	workclasses := []string{"Private", "SelfEmp", "Federal", "State", "Local", "Unpaid"}
	educations := []string{"HS", "College", "Bachelors", "Masters", "Doctorate", "Some-college", "11th", "9th"}
	maritals := []string{"Married", "Single", "Divorced", "Widowed"}
	occupations := make([]string, 15)
	for i := range occupations {
		occupations[i] = fmt.Sprintf("occ%02d", i)
	}
	relationships := []string{"Husband", "Wife", "Own-child", "Unmarried", "Other"}
	races := []string{"White", "Black", "Asian", "Other"}
	sexes := []string{"Male", "Female"}
	countries := make([]string, 40)
	for i := range countries {
		countries[i] = fmt.Sprintf("country%02d", i)
	}
	for i := 0; i < cfg.Rows; i++ {
		edu := rng.Intn(len(educations))
		wage := 8 + float64(edu)*4 + rng.Float64()*6
		income := "<=50K"
		if wage > 25 {
			income = ">50K"
		}
		t.AppendRow(
			dataset.IV(int64(17+rng.Intn(70))),
			dataset.SV(workclasses[rng.Intn(len(workclasses))]),
			dataset.SV(educations[edu]),
			dataset.SV(maritals[rng.Intn(len(maritals))]),
			dataset.SV(occupations[rng.Intn(len(occupations))]),
			dataset.SV(relationships[rng.Intn(len(relationships))]),
			dataset.SV(races[rng.Intn(len(races))]),
			dataset.SV(sexes[rng.Intn(2)]),
			dataset.SV(countries[rng.Intn(len(countries))]),
			dataset.SV(income),
			dataset.IV(int64(10+rng.Intn(60))),
			dataset.FV(math.Max(0, rng.NormFloat64()*500)),
			dataset.FV(math.Max(0, rng.NormFloat64()*100)),
			dataset.FV(wage),
		)
	}
	return t
}

// HousingConfig parameterizes the Zillow-like housing dataset of the user
// study (city, county, state, year, quarter, month, prices, turnover).
type HousingConfig struct {
	Cities int
	States int
	Years  int
	Seed   int64
}

// Housing generates the housing table: one row per city per month.
func Housing(cfg HousingConfig) *dataset.Table {
	t := dataset.NewTable("housing", []dataset.Field{
		{Name: "city", Kind: dataset.KindString},
		{Name: "county", Kind: dataset.KindString},
		{Name: "state", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "quarter", Kind: dataset.KindInt},
		{Name: "month", Kind: dataset.KindInt},
		{Name: "SoldPrice", Kind: dataset.KindFloat},
		{Name: "ListingPrice", Kind: dataset.KindFloat},
		{Name: "Turnover_rate", Kind: dataset.KindFloat},
		{Name: "foreclosures", Kind: dataset.KindFloat},
	})
	rng := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < cfg.Cities; c++ {
		stateIdx := c % cfg.States
		state := fmt.Sprintf("state%02d", stateIdx)
		county := fmt.Sprintf("county%03d", c%(cfg.Cities/2+1))
		slope, spike := trendShape(c)
		// Even-indexed states have turnover moving against price — the
		// anomaly the Figure 6.5 scenario hunts; odd states co-move.
		turnSlope := slope
		if stateIdx%2 == 0 {
			turnSlope = -slope
		}
		base := 150000 + float64(c%37)*5000
		for y := 0; y < cfg.Years; y++ {
			for m := 1; m <= 12; m++ {
				dy := float64(y) + float64(m-1)/12
				price := base + slope*dy*8000 + rng.Float64()*3000
				if spike && y == cfg.Years/2 {
					// The 2008-2012-style bubble the study's Figure 6.2 hunts.
					price += 60000 * math.Sin(float64(m)/12*math.Pi)
				}
				turnover := 0.05 + 0.002*turnSlope*dy + rng.Float64()*0.002
				foreclosures := math.Max(0, 50-slope*dy*4+rng.Float64()*10)
				t.AppendRow(
					dataset.SV(fmt.Sprintf("city%03d", c)),
					dataset.SV(county),
					dataset.SV(state),
					dataset.IV(int64(2004+y)),
					dataset.IV(int64((m-1)/3+1)),
					dataset.IV(int64(m)),
					dataset.FV(price),
					dataset.FV(price*1.05),
					dataset.FV(turnover),
					dataset.FV(foreclosures),
				)
			}
		}
	}
	return t
}

// GroupSweepClustered builds the same schema and value distributions as
// GroupSweep but with rows arriving ordered by z — the layout of data loaded
// per tenant, per partition, or in time order, where each slice occupies a
// contiguous run of rows. Clustered layouts are what make column-store zone
// maps effective: a per-slice predicate can prove most segments empty.
func GroupSweepClustered(rows, zCard, xCard int, seed int64) *dataset.Table {
	return groupSweep(rows, zCard, xCard, seed, func(i int, _ *rand.Rand) int {
		return i * zCard / rows // contiguous run per z value
	})
}

// GroupSweep builds a sales-like table with exactly the requested number of
// groups = zCard × xCard, the knob Figures 7.4 and 7.5 sweep, holding row
// count fixed.
func GroupSweep(rows, zCard, xCard int, seed int64) *dataset.Table {
	return groupSweep(rows, zCard, xCard, seed, func(_ int, rng *rand.Rand) int {
		return rng.Intn(zCard)
	})
}

// groupSweep is the shared generator; zOf decides each row's z group, which
// is the only thing the clustered and shuffled variants differ in.
func groupSweep(rows, zCard, xCard int, seed int64, zOf func(i int, rng *rand.Rand) int) *dataset.Table {
	t := dataset.NewTable("sweep", []dataset.Field{
		{Name: "z", Kind: dataset.KindString},
		{Name: "x", Kind: dataset.KindInt},
		{Name: "p1", Kind: dataset.KindString},
		{Name: "p2", Kind: dataset.KindString},
		{Name: "y", Kind: dataset.KindFloat},
	})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		z := zOf(i, rng)
		x := rng.Intn(xCard)
		slope, spike := trendShape(z)
		y := 100 + slope*float64(x)/float64(xCard)*100 + rng.Float64()*10
		if spike && x == xCard/2 {
			y += 120
		}
		// p1 selects ~10% of rows, p2 ~50%: the selectivity predicates of
		// Figure 7.5.
		p1 := "no"
		if rng.Intn(10) == 0 {
			p1 = "yes"
		}
		p2 := "no"
		if rng.Intn(2) == 0 {
			p2 = "yes"
		}
		t.AppendRow(
			dataset.SV(fmt.Sprintf("z%05d", z)),
			dataset.IV(int64(x)),
			dataset.SV(p1),
			dataset.SV(p2),
			dataset.FV(y),
		)
	}
	return t
}

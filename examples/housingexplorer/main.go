// Housing explorer: the real-estate scenarios of Chapter 6 on the Zillow-like
// housing dataset. (i) Find cities whose selling-price trend is most unlike
// the overall state trend (Figure 6.4's scenario); (ii) find states where
// turnover rate and sale price move in opposite directions (Figure 6.5);
// (iii) show the recommendation panel's diverse trends.
//
// Run with: go run ./examples/housingexplorer
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/recommend"
	"repro/internal/render"
	"repro/internal/vis"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zql"
)

// unusualCities: f1 is the state-wide price trend (no Z slice); f2 iterates
// cities of state00; argmax D finds the cities least like their state.
const unusualCities = `
NAME | X      | Y           | Z                | CONSTRAINTS     | VIZ                | PROCESS
f1   | 'year' | 'SoldPrice' |                  | state='state00' | bar.(y=agg('avg')) |
f2   | 'year' | 'SoldPrice' | v1 <- 'city'.*     | state='state00' | bar.(y=agg('avg')) | v2 <- argmax(v1)[k=3] D(f1, f2)
*f3  | 'year' | 'SoldPrice' | v2               |                 | bar.(y=agg('avg')) |`

// opposedStates: states where the turnover-rate trend opposes the price
// trend — prices rising while turnover falls, the Figure 6.5 anomaly.
const opposedStates = `
NAME | X      | Y               | Z               | VIZ                | PROCESS
f1   | 'year' | 'SoldPrice'     | v1 <- 'state'.* | bar.(y=agg('avg')) | v2 <- argany(v1)[t>0] T(f1)
f2   | 'year' | 'Turnover_rate' | v1              | bar.(y=agg('avg')) | v3 <- argany(v1)[t<0] T(f2)
*f3  | 'year' | 'Turnover_rate' | v4 <- (v2.range & v3.range) | bar.(y=agg('avg')) |`

func main() {
	log.SetFlags(0)
	table := workload.Housing(workload.HousingConfig{Cities: 80, States: 8, Years: 10, Seed: 4})
	db := engine.NewBitmapStore(table)

	run := func(name, src string) *zexec.Result {
		q, err := zql.Parse(src)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		res, err := zexec.Run(q, db, zexec.Options{Table: "housing", Seed: 5})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return res
	}

	res := run("unusual cities", unusualCities)
	fmt.Printf("cities least like the state00 price trend: %v\n", res.Bindings["v2"])

	res = run("opposed states", opposedStates)
	fmt.Printf("states with rising prices but falling turnover: %v\n\n", res.Bindings["v4"])

	recs, err := recommend.Diverse(context.Background(), db, recommend.Request{
		Table: "housing", X: "year", Y: "SoldPrice", Z: "city", K: 3, Seed: 5,
	}, vis.DefaultMetric)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recommendation panel — the 3 most diverse city price trends:")
	for _, r := range recs {
		fmt.Printf("\n[representative of %d cities]\n%s", r.ClusterSize,
			render.Chart(r.Vis, render.Config{Width: 40, Height: 6}))
	}
}

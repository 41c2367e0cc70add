// Quickstart: reproduce the paper's running example end to end.
//
// A user wants the table of Table 1 — (State, Lake Name, Area) — from the
// Mondial database, but only knows that Lake Tahoe is in California or
// Nevada and that areas are non-negative decimals. Prism synthesizes the
// Project-Join query from those multiresolution constraints.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"prism"
)

func main() {
	// 1. Configuration: pick the Mondial source database (built
	//    synthetically, with the rows the walkthrough relies on). Every
	//    round runs on the engine's columnar executor.
	eng, err := prism.Open("mondial")
	if err != nil {
		log.Fatal(err)
	}

	// Peek at the source before writing constraints against it.
	if rows, err := eng.SampleRows("Lake", 3); err == nil {
		fmt.Println("sample of Lake:")
		for _, row := range rows {
			fmt.Printf("  %v\n", row)
		}
	}

	// 2. Description: three target columns, one sample constraint mixing a
	//    disjunction, an exact value and a missing cell, plus a metadata
	//    constraint on the third column.
	spec, err := prism.ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Start searching (the demo's 60-second budget is the default). The
	//    context cancels the round early if the program is interrupted.
	report, err := eng.Discover(context.Background(), spec, prism.Options{IncludeResults: true, ResultLimit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Summary())

	// 4. Result: every satisfying schema mapping query, with its SQL and a
	//    preview of its result; the first one is explained as a query graph.
	for i, m := range report.Mappings {
		fmt.Printf("\n-- query %d --\n%s\n", i+1, m.SQL)
		if m.Result != nil {
			fmt.Print(m.Result.String())
		}
	}
	if len(report.Mappings) > 0 {
		fmt.Println("\n-- explanation of query 1 --")
		fmt.Print(prism.Explain(report.Mappings[0], spec, prism.AllConstraints()).ASCII())
	}
}

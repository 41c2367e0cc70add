// Scheduler comparison: run the same discovery task under every scheduling
// policy and compare how many filter validations each needed — a miniature
// version of the paper's §2.4 evaluation that you can run on your laptop.
//
//	go run ./examples/scheduler_comparison
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"prism"
)

func main() {
	eng, err := prism.Open("mondial", prism.WithMondialConfig(prism.MondialConfig{
		Seed: 7, Countries: 6, ProvincesPerCountry: 4, CitiesPerProvince: 3,
		Lakes: 60, Rivers: 40, Mountains: 25,
	}))
	if err != nil {
		log.Fatal(err)
	}
	spec, err := prism.ParseConstraints(3,
		[][]string{{"California || Nevada", "Lake Tahoe", "[400, 600]"}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	)
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tvalidations\timplied\tmappings\telapsed")
	for _, policy := range []prism.Policy{
		prism.PolicyOracle, prism.PolicyBayes, prism.PolicyPathLength, prism.PolicyRandom,
	} {
		report, err := eng.Discover(context.Background(), spec, prism.Options{Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\n",
			policy, report.Validations, report.Implied, len(report.Mappings), report.Elapsed.Round(1e6))
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe oracle row is the optimum; Prism's Bayesian scheduling should sit")
	fmt.Println("between the optimum and the path-length baseline, as in the paper's §2.4.")
}

// Comparison: run every estimator in the library against the same
// population and accuracy target, reproducing the paper's central argument
// in miniature — slot counts do not predict execution time, because the
// reader→tag broadcasts dominate some protocols (ZOE) and not others.
//
//	go run ./examples/comparison
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"rfidest"
)

func main() {
	ctx := context.Background()
	const n = 200000
	const eps, delta = 0.05, 0.05

	// The synthetic system samples exact frame statistics, which keeps
	// ZOE's thousands of single-slot frames fast to simulate.
	sys := rfidest.NewSystem(n, rfidest.WithSeed(99), rfidest.WithSynthetic())

	type row struct {
		name string
		est  rfidest.Estimate
	}
	var rows []row
	for _, name := range rfidest.Estimators() {
		est, err := sys.Run(ctx, rfidest.WithEstimator(name), rfidest.WithAccuracy(eps, delta))
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, est})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].est.Seconds < rows[j].est.Seconds })

	fmt.Printf("n = %d, requirement (%.2f, %.2f)\n\n", n, eps, delta)
	fmt.Println("estimator  estimate   err%     air-time   slots   reader-bits")
	fmt.Println("--------------------------------------------------------------")
	for _, r := range rows {
		errPct := 100 * abs(r.est.N-n) / n
		fmt.Printf("%-9s  %8.0f   %5.2f%%   %7.4fs   %6d   %d\n",
			r.name, r.est.N, errPct, r.est.Seconds, r.est.Slots, r.est.ReaderBits)
	}
	fmt.Println("\nnote the ordering: protocols with few tag slots but per-slot seed")
	fmt.Println("broadcasts (ZOE, PET) pay for every reader transmission; BFCE's two")
	fmt.Println("fixed frames keep both columns — and therefore the air time — constant.")
	fmt.Println("LOF and PET are rough/loglog estimators: their errors are constant-factor.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

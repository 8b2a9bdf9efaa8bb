// Command rfidtrace prints the over-the-air dialogue of one estimation
// run: every reader broadcast and every sensed frame, in order, with the
// accumulated air-time cost. It makes the paper's central argument visible
// in the raw transcript — compare the three-broadcast dialogue of BFCE
// against ZOE's thousands of per-slot seed broadcasts:
//
//	rfidtrace -n 100000 -estimator BFCE
//	rfidtrace -n 100000 -estimator ZOE -max-events 30
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rfidest/internal/channel"
	"rfidest/internal/estimators"
	"rfidest/internal/tags"
)

func main() {
	var (
		n         = flag.Int("n", 100000, "true tag cardinality to simulate")
		name      = flag.String("estimator", "BFCE", "protocol to trace: "+strings.Join(estimators.Names(), " | "))
		eps       = flag.Float64("eps", 0.05, "confidence interval epsilon")
		delta     = flag.Float64("delta", 0.05, "error probability delta")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		maxEvents = flag.Int("max-events", 100, "stop printing after this many events (0 = all)")
	)
	flag.Parse()

	est, err := estimators.New(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidtrace: %v\n", err)
		os.Exit(2)
	}

	pop := tags.Generate(*n, tags.T1, *seed)
	r := channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), *seed+1)

	events, suppressed := 0, 0
	r.SetTrace(func(e channel.TraceEvent) {
		events++
		if *maxEvents > 0 && events > *maxEvents {
			suppressed++
			return
		}
		fmt.Printf("%5d  %-60s  t=%.4fs\n", events, e.String(), r.Seconds())
	})

	res, err := estimators.Estimate(est, r, estimators.Accuracy{Epsilon: *eps, Delta: *delta})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfidtrace: %v\n", err)
		os.Exit(1)
	}
	if suppressed > 0 {
		fmt.Printf("  ...  (%d further events suppressed; raise -max-events)\n", suppressed)
	}
	fmt.Println(strings.Repeat("-", 80))
	fmt.Printf("%s: n̂=%.0f (true %d)  air-time=%.4fs  %d events  cost: %s\n",
		est.Name(), res.Estimate, *n, res.Seconds, events, res.Cost)
}

// Command nws demonstrates the Network Weather Service on the simulated
// Figure 2 testbed: it runs the sensors for a stretch of virtual time,
// then prints the per-resource forecasts, the forecaster each series
// selected, and the per-forecaster error table for one host.
//
// With -store DIR every sample is appended to a durable measurement
// store, and a later run on the same directory warm-starts its
// forecasters from the recorded history before sensing resumes.
//
// Usage:
//
//	nws -seed 11 -horizon 3600 -period 10 -detail sparc2
//	nws -horizon 300 -store ./history   # run twice: the second warm-starts
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"apples"
)

func main() {
	seed := flag.Int64("seed", 11, "ambient-load seed")
	horizon := flag.Float64("horizon", 3600, "virtual seconds to sense")
	period := flag.Float64("period", 10, "sensor period (virtual seconds)")
	detail := flag.String("detail", "sparc2", "host whose forecaster error table to print")
	storeDir := flag.String("store", "", "durable measurement store directory: samples are appended, and existing history warm-starts the forecasters")
	flag.Parse()

	eng := apples.NewEngine()
	tp := apples.SDSCPCL(eng, apples.TestbedOptions{Seed: *seed})
	var nwsOpts []apples.NWSOption
	var store *apples.MeasurementStore
	if *storeDir != "" {
		var err error
		store, err = apples.OpenMeasurementStore(*storeDir)
		if err != nil {
			fail(err)
		}
		if rec := store.Recovery(); rec.DroppedBytes > 0 {
			fmt.Printf("store %s: recovered after unclean shutdown, dropped %d torn trailing bytes\n",
				*storeDir, rec.DroppedBytes)
		}
		nwsOpts = append(nwsOpts, apples.WithNWSStore(store))
	}
	svc := apples.NewNWS(eng, *period, nwsOpts...)
	if store != nil {
		replayed, err := svc.RestoreFromStore(store)
		if err != nil {
			fail(err)
		}
		if replayed > 0 {
			fmt.Printf("store %s: warm-started forecasters from %d records\n\n", *storeDir, replayed)
		}
	}
	svc.WatchTopology(tp)
	if err := eng.RunUntil(*horizon); err != nil {
		fail(err)
	}
	if store != nil {
		if err := svc.StoreErr(); err != nil {
			fail(err)
		}
		if err := store.Close(); err != nil {
			fail(err)
		}
	}

	fmt.Printf("Network Weather Service after %.0f s of virtual time (period %.0f s)\n\n", *horizon, *period)
	fmt.Print(svc.Report())

	bank := svc.CPUBank(*detail)
	if bank == nil {
		fail(fmt.Errorf("unknown host %q", *detail))
	}
	fmt.Printf("\nforecaster bank for CPU availability of %s (%d samples):\n", *detail, bank.Len())
	mse := bank.MSE()
	mae := bank.MAE()
	names := make([]string, 0, len(mse))
	for n := range mse {
		names = append(names, n)
	}
	// Ties on MSE print in name order, so equal rows never shuffle.
	sort.Slice(names, func(i, j int) bool {
		if mse[names[i]] != mse[names[j]] {
			return mse[names[i]] < mse[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Println("  forecaster     MSE        MAE")
	for _, n := range names {
		fmt.Printf("  %-12s %9.6f  %9.6f\n", n, mse[n], mae[n])
	}
	v, by, _ := bank.Forecast()
	fmt.Printf("  selected: %s -> forecast %.3f (truth now: %.3f)\n",
		by, v, tp.Host(*detail).Availability())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nws:", err)
	os.Exit(1)
}

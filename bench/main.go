// Command bench is the end-to-end benchmark of the AppLeS reproduction.
// It drives the paper's loop (sense, forecast, select, plan, estimate,
// pick, actuate) and the service around it through five seeded
// workloads, prints every end-to-end metric with its unit, checks every
// decision against a reference replay and the committed digests, and
// splits a traced run into per-layer costs.
//
// Usage, from this directory:
//
//	go run . -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	    run one workload in this process; the last line of standard
//	    output is its result as one JSON object
//	go run . run [-seed N] [-seconds S] [-workload A,B] [-o FILE] [-trace FILE] [-update]
//	    run every workload, each in its own child process, print a
//	    table and append the results to FILE
//	go run . compare A.json B.json
//	go run . compare -pairs N -a BIN_A -b BIN_B
//	go run . compare -self [-runs N]
//	    compare two sets of runs (see README.md)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "kernel": // the reference kernel's process; see calib.go
			if err := serveKernel(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "bench kernel: %v\n", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// cmdOne runs one workload in this process and prints its result. The
// exit status is 0 whenever a result is printed, correct or not; the
// "correct" field says which.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every testbed and load is derived from")
	seconds := fs.Float64("seconds", 15, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	workdir := fs.String("workdir", "out", "directory for the measurement store and span files")
	spans := fs.String("spans", "", "where a traced run writes its spans (default WORKDIR/trace-WORKLOAD.jsonl)")
	update := fs.Bool("update", false, "skip the committed-digest check (run -update rewrites the digests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || *trace < 0 || *trace > 1 || !(*seconds >= 0) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %s), -trace 0 or 1 and -seconds >= 0\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	gold, err := loadGoldens(goldenJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *update {
		gold = goldens{}
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workdir: *workdir, spans: *spans}
	if o.trace && o.spans == "" {
		o.spans = spansPath(*workdir, w.name)
	}
	res, err := runWorkload(w, o, gold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printResult(os.Stderr, res)
	detail, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, detail, last)
	return 0
}

// detailPrefix marks the line before the result that carries the full
// result (digest, extra metrics, problems) for `run`.
const detailPrefix = "detail "

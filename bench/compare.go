package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// cmdCompare compares two sets of runs workload by workload:
//
//	compare A.json B.json          two run files, A the parent
//	compare -pairs N -a BIN -b BIN  run N pairs, alternating which goes first
//	compare -self [-runs N]        two sets of this binary must agree
func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	pairs := fs.Int("pairs", 0, "run this many pairs of -a and -b, alternating which runs first")
	binA := fs.String("a", "", "bench binary built from the parent (with -pairs)")
	binB := fs.String("b", "", "bench binary built from the change (with -pairs)")
	self := fs.Bool("self", false, "run this binary twice -runs times and check that the sets agree")
	runs := fs.Int("runs", 3, "runs per set with -self")
	seed := fs.Int64("seed", 1, "seed of the first pair or run; later ones count up")
	seconds := fs.Float64("seconds", 15, "how long each run measures each workload")
	only := fs.String("workload", "", "comma-separated workloads (default all)")
	workdir := fs.String("workdir", "out", "directory for run files and stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectWorkloads(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	var a, b []runSet
	switch {
	case *self:
		var bin string
		if bin, err = os.Executable(); err == nil {
			a, b, err = runSets(bin, bin, *runs, *seed, *seconds, *only, *workdir)
		}
	case *pairs > 0:
		if *binA == "" || *binB == "" {
			fmt.Fprintln(os.Stderr, "bench compare: -pairs needs -a and -b")
			return 2
		}
		a, b, err = runSets(*binA, *binB, *pairs, *seed, *seconds, *only, *workdir)
	case fs.NArg() == 2:
		var fa, fb *runFile
		if fa, err = readRunFile(fs.Arg(0)); err == nil {
			fb, err = readRunFile(fs.Arg(1))
		}
		if err == nil {
			a, b = fa.Runs, fb.Runs
		}
	default:
		fmt.Fprintln(os.Stderr, "bench compare: give A.json B.json, -pairs N -a BIN -b BIN, or -self")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 1
	}
	return report(os.Stdout, selected, a, b, *self)
}

// runSets runs n runs of each binary with `run`, pair i on seed seed+i.
// Odd pairs run B first, so drift in the machine's speed does not
// always favour one side.
func runSets(binA, binB string, n int, seed int64, seconds float64, only, workdir string) ([]runSet, []runSet, error) {
	fileA := filepath.Join(workdir, "compare-a.json")
	fileB := filepath.Join(workdir, "compare-b.json")
	for _, f := range []string{fileA, fileB} {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
	}
	for i := 0; i < n; i++ {
		sides := [][2]string{{binA, fileA}, {binB, fileB}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, side := range sides {
			args := []string{"run", "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-o", side[1], "-workdir", workdir}
			if only != "" {
				args = append(args, "-workload", only)
			}
			cmd := exec.Command(side[0], args...)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			// A run that finds a wrong decision still records its
			// numbers; report shows the digests.
			if err := cmd.Run(); err != nil {
				if _, ok := err.(*exec.ExitError); !ok {
					return nil, nil, err
				}
			}
		}
	}
	fa, err := readRunFile(fileA)
	if err != nil {
		return nil, nil, err
	}
	fb, err := readRunFile(fileB)
	if err != nil {
		return nil, nil, err
	}
	return fa.Runs, fb.Runs, nil
}

// deterministic metrics are functions of the seed alone: two runs of
// one commit on one seed must read exactly the same.
var deterministic = map[string]bool{"predicted_time_s": true, "app_time_s": true, "prediction_mape": true}

// values collects one metric of one workload across runs, in run order;
// ok is false when some run lacks it.
func values(sets []runSet, workload, metric string) (xs []float64, ok bool) {
	for _, s := range sets {
		found := false
		for _, r := range s.Results {
			if r.Workload != workload {
				continue
			}
			v, in := r.Metrics[metric]
			if !in {
				v, in = r.Extra[metric]
			}
			if in {
				xs = append(xs, v.Value)
				found = true
			}
		}
		if !found {
			return nil, false
		}
	}
	return xs, len(xs) > 0
}

func digests(sets []runSet, workload string) map[int64]string {
	out := map[int64]string{}
	for _, s := range sets {
		for _, r := range s.Results {
			if r.Workload == workload {
				out[s.Seed] = r.Digest
			}
		}
	}
	return out
}

// verdict applies the comparison rules to one (workload, metric) row.
// a is the parent. A gain needs the change to win at least 9 in 10
// pairs and the medians to differ by more than the parent's
// interquartile range. A regression is a median worse by more than the
// bound. When the parent's own spread exceeds the bound, the row is
// unresolved unless every run of the change beats every run of the
// parent.
func verdict(d metricDef, a, b []float64) (string, float64) {
	q1, medA, q3 := quartiles(append([]float64(nil), a...))
	_, medB, _ := quartiles(append([]float64(nil), b...))
	sign := 1.0 // positive delta = worse
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (medB - medA)
	rel := worse
	if d.Name != "error_rate" { // error_rate's bound is absolute
		rel = ratio(worse, math.Abs(medA))
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	spreadA := ratio(q3-q1, math.Abs(medA))
	switch {
	case spreadA > d.Bound && !allBetter:
		return "unresolved", rel
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > q3-q1:
		return "gain", rel
	case rel > d.Bound:
		return "REGRESSION", rel
	}
	return "ok", rel
}

// report prints one row per (workload, metric). In agreement mode (two
// sets of one commit) a row fails when its medians differ by more than
// the bound, a deterministic metric differs at all, or a digest differs.
func report(w io.Writer, ws []*workload, a, b []runSet, agreement bool) int {
	status := 0
	fmt.Fprintf(w, "%-14s %-18s %32s %32s %9s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "worse", "verdict")
	for _, wl := range ws {
		for _, d := range append(append([]metricDef(nil), gated...), ungated...) {
			xa, okA := values(a, wl.name, d.Name)
			xb, okB := values(b, wl.name, d.Name)
			if !okA || !okB {
				continue
			}
			v, rel := verdict(d, xa, xb)
			if agreement {
				v = "agree"
				_, medA, _ := quartiles(append([]float64(nil), xa...))
				_, medB, _ := quartiles(append([]float64(nil), xb...))
				diff := math.Abs(medB - medA)
				if d.Name != "error_rate" {
					diff = ratio(diff, math.Abs(medA))
				}
				switch {
				case deterministic[d.Name] && !equal(xa, xb):
					v, status = "DIFFERS", 1
				case diff > d.Bound:
					v, status = "DISAGREE", 1
				}
			} else if v == "REGRESSION" {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %32s %32s %8.2f%%  %s\n", wl.name, d.Name,
				fmtQuartiles(xa), fmtQuartiles(xb), 100*rel, v)
		}
		da, db := digests(a, wl.name), digests(b, wl.name)
		for seed, dg := range da {
			if other, ok := db[seed]; ok && other != dg {
				fmt.Fprintf(w, "%-14s digest differs on seed %d: %s vs %s\n", wl.name, seed, dg, other)
				status = 1
			}
		}
	}
	return status
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtQuartiles(xs []float64) string {
	q1, med, q3 := quartiles(append([]float64(nil), xs...))
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runFile is the JSON a `run` appends to: one entry per invocation.
type runFile struct {
	Runs []runSet `json:"runs"`
}

type runSet struct {
	Seed    int64     `json:"seed"`
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
}

// cmdRun runs the selected workloads, each in its own child process, so
// rss_peak_mb and the garbage collector's state belong to one workload.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every testbed and load is derived from")
	seconds := fs.Float64("seconds", 15, "how long to measure each workload")
	only := fs.String("workload", "", "comma-separated workloads to run (default all)")
	out := fs.String("o", "out/run.json", "file the results are appended to")
	trace := fs.String("trace", "", "run traced and write every workload's spans to this file")
	update := fs.Bool("update", false, "record this seed's decision digests in -golden")
	golden := fs.String("golden", "testdata/digests.json", "committed digest file -update rewrites")
	workdir := fs.String("workdir", "out", "directory for the measurement store and span files")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return 2
	}
	selected, err := selectWorkloads(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench run: %v\n", err)
		return 2
	}
	set, err := runChildren(selected, *seed, *seconds, *workdir, *trace, *update)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench run: %v\n", err)
		return 1
	}
	status := 0
	for _, res := range set.Results {
		printResult(os.Stdout, res)
		if !res.Correct {
			status = 1
		}
		if *update && res.Correct {
			if err := updateGolden(*golden, *seed, res.Workload, res.Digest); err != nil {
				fmt.Fprintf(os.Stderr, "bench run: %v\n", err)
				status = 1
			}
		}
	}
	if err := appendRun(*out, set); err != nil {
		fmt.Fprintf(os.Stderr, "bench run: %v\n", err)
		return 1
	}
	fmt.Printf("results appended to %s\n", *out)
	return status
}

func selectWorkloads(only string) ([]*workload, error) {
	if only == "" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(only, ",") {
		w, ok := workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
		}
		out = append(out, w)
	}
	return out, nil
}

// runChildren re-executes this binary once per workload and collects
// the results. With traceFile set the children run traced, and their
// span files are joined into traceFile.
func runChildren(ws []*workload, seed int64, seconds float64, workdir, traceFile string, update bool) (*runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &runSet{Seed: seed, Trace: traceFile != ""}
	var parts []string
	for _, w := range ws {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-workdir", workdir}
		if traceFile != "" {
			part := traceFile + "." + w.name
			parts = append(parts, part)
			args = append(args, "-trace", "1", "-spans", part)
		}
		if update {
			args = append(args, "-update")
		}
		fmt.Fprintf(os.Stderr, "== %s (seed %d)\n", w.name, seed)
		res, err := runChild(self, args)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		set.Results = append(set.Results, res)
	}
	if traceFile != "" {
		if err := joinFiles(traceFile, parts); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// runChild runs one child and parses the detail line of its output.
func runChild(bin string, args []string) (*result, error) {
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			res := &result{}
			if err := json.Unmarshal([]byte(line), res); err != nil {
				return nil, fmt.Errorf("parse child result: %w", err)
			}
			return res, nil
		}
	}
	return nil, errors.New("child printed no result")
}

// joinFiles concatenates parts into dst and removes them.
func joinFiles(dst string, parts []string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	for _, p := range parts {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := os.Remove(p); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// appendRun adds set to the run file at path, creating it if needed.
func appendRun(path string, set *runSet) error {
	rf, err := readRunFile(path)
	if errors.Is(err, os.ErrNotExist) {
		rf, err = &runFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, *set)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &runFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// printResult prints one workload's result as a table.
func printResult(w io.Writer, res *result) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%s  seed=%d  digest=%s  %s  attempted=%d failed=%d  kernel=%.4g ms  steal=%.3g%%\n",
		res.Workload, res.Seed, res.Digest, verdict, res.Attempted, res.Failed, res.KernelMS, res.StealPct)
	for _, m := range []map[string]metricValue{res.Metrics, res.Extra} {
		for _, name := range sortedNames(m) {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s (reported as 0)\n", n)
	}
}

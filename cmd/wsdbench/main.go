// Command wsdbench regenerates the paper's tables and figures and runs the
// performance regression suite.
//
// Usage:
//
//	wsdbench -exp table3              # one experiment, quick profile
//	wsdbench -exp all -full           # full suite at paper-like trial counts
//	wsdbench -list                    # list experiment ids
//	wsdbench -exp suite -json > BENCH_$(date +%F).json
//	                                  # machine-readable perf report
//	wsdbench -compare old.json new.json
//	                                  # exit 1 on >10% perf regression
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/benchsuite"
	"repro/internal/experiment"
)

// experiments is the paper registry plus this tool's own suite entry.
func experiments() []experiment.Entry {
	suite := func(p experiment.Profile) (*experiment.Table, error) {
		rep, err := benchsuite.Run(suiteConfig(p))
		if err != nil {
			return nil, err
		}
		return suiteTable(rep), nil
	}
	return append(experiment.Registry(), experiment.Entry{ID: "suite", Run: suite})
}

// suiteOnly carries the -only flag's workload substrings into suiteConfig
// (the suite is reached both from -json and from its experiments entry).
var suiteOnly []string

// suiteConfig maps the experiment profile onto the benchmark suite: the seed
// carries over, and the trial count is capped at 5 — perf trials average
// clock noise, not sampling variance, so paper-scale repetition buys nothing.
func suiteConfig(p experiment.Profile) benchsuite.Config {
	trials := p.Trials
	if trials > 5 {
		trials = 5
	}
	return benchsuite.Config{Seed: p.Seed, Trials: trials, Only: suiteOnly}
}

// suiteTable renders a perf report as a wsdbench table, the human view of
// the JSON artifact.
func suiteTable(rep *benchsuite.Report) *experiment.Table {
	t := &experiment.Table{
		ID:     "suite",
		Title:  "Ingest benchmark suite (fixed seeds; see -json for the machine-readable report)",
		Header: []string{"workload", "events", "events/s", "ns/event", "allocs/event", "MRE"},
		Notes: []string{
			fmt.Sprintf("seed %d, %d trial(s), %s %s/%s, %d CPUs", rep.Seed, rep.Trials, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CPUs),
			"record: wsdbench -exp suite -json > BENCH_<date>.json; gate: wsdbench -compare old.json new.json",
		},
	}
	for _, r := range rep.Results {
		t.AddRow(r.Workload, fmt.Sprintf("%d", r.Events), fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.0f", r.NsPerEvent), fmt.Sprintf("%.3f", r.AllocsPerEvent),
			fmt.Sprintf("%.2f%%", r.MREVsExact*100))
	}
	return t
}

// runCompare implements -compare: load two reports, diff, print, and exit
// non-zero on regression. Reports recorded at a different seed or trial
// count are refused: their MREs average different trial seeds, so no cell's
// MRE could match the baseline's bit for bit.
func runCompare(oldPath, newPath string, tol benchsuite.Tolerances) int {
	load := func(path string) *benchsuite.Report {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %v\n", err)
			os.Exit(2)
		}
		rep, err := benchsuite.DecodeReport(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %s: %v\n", path, err)
			os.Exit(2)
		}
		return rep
	}
	base, next := load(oldPath), load(newPath)
	if base.Seed != next.Seed {
		fmt.Fprintf(os.Stderr, "wsdbench: %s has seed %d, the baseline %s has %d; rerun at the baseline's seed\n", newPath, next.Seed, oldPath, base.Seed)
		return 2
	}
	if base.Trials != next.Trials {
		fmt.Fprintf(os.Stderr, "wsdbench: %s has trials %d, the baseline %s has %d; rerun at the baseline's trial count\n", newPath, next.Trials, oldPath, base.Trials)
		return 2
	}
	regs := benchsuite.Compare(base, next, tol)
	fmt.Printf("comparing %s (base) vs %s\n%s", oldPath, newPath, benchsuite.FormatComparison(base, next, regs))
	if len(regs) > 0 {
		return 1
	}
	return 0
}

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	full := flag.Bool("full", false, "use the paper-scale profile (100 trials, 1000 DDPG iterations)")
	trials := flag.Int("trials", 0, "override the number of sampling trials")
	seed := flag.Int64("seed", 0, "override the base seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "with -exp suite: emit the machine-readable JSON report on stdout")
	only := flag.String("only", "", "with -exp suite: run only workloads whose name contains one of these comma-separated substrings")
	compare := flag.Bool("compare", false, "compare two suite reports: wsdbench -compare old.json new.json; exits 1 on regression")
	tolTime := flag.Float64("tolerance", 0, "with -compare: allowed relative events/s drop (default 0.10)")
	tolAllocs := flag.Float64("alloc-tolerance", 0, "with -compare: allowed relative allocs/event rise (default 0.10)")
	tolMRE := flag.Float64("mre-tolerance", 0, "with -compare: allowed relative MRE rise (default 0.50)")
	flag.Parse()

	all := experiments()
	if *list {
		for _, e := range all {
			fmt.Println(e.ID)
		}
		return
	}
	if *only != "" {
		for _, part := range strings.Split(*only, ",") {
			if part = strings.TrimSpace(part); part != "" {
				suiteOnly = append(suiteOnly, part)
			}
		}
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: wsdbench -compare [-tolerance X] [-alloc-tolerance Y] [-mre-tolerance Z] old.json new.json")
			os.Exit(2)
		}
		tol := benchsuite.Tolerances{Throughput: *tolTime, Allocs: *tolAllocs, MRE: *tolMRE}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), tol))
	}
	prof := experiment.Quick()
	if *full {
		prof = experiment.Full()
	}
	if *trials > 0 {
		prof.Trials = *trials
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	if *jsonOut {
		if *exp != "suite" {
			fmt.Fprintln(os.Stderr, "wsdbench: -json requires -exp suite")
			os.Exit(2)
		}
		rep, err := benchsuite.Run(suiteConfig(prof))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: suite: %v\n", err)
			os.Exit(1)
		}
		out, err := rep.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: suite: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: wsdbench -exp <id>|all [-full] [-trials N] [-seed S] [-json]; -list shows ids; -compare diffs suite reports")
		os.Exit(2)
	}

	selected := all
	if *exp != "all" {
		selected = nil
		for _, id := range strings.Split(*exp, ",") {
			i := slices.IndexFunc(all, func(e experiment.Entry) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "wsdbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, all[i])
		}
	}
	for _, e := range selected {
		start := time.Now()
		t, err := e.Run(prof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsdbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

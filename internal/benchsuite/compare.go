package benchsuite

import (
	"fmt"
	"strings"
)

// Tolerances bound how much worse the new report may be before Compare
// flags a regression. Zero values take the defaults.
type Tolerances struct {
	// Throughput is the allowed relative drop in events_per_sec (default
	// 0.10: >10% slower is a regression). Wall-clock rates only compare
	// meaningfully on similar hardware; cross-machine gates (CI runners vs
	// the baseline's laptop) should loosen this, not disable the gate.
	Throughput float64
	// Allocs is the allowed relative rise in allocs_per_event (default
	// 0.10). AllocsFloor is additional absolute slack (default 0.02
	// allocs/event, the in-package alloc guards' budget) so near-zero
	// baselines don't flag on noise; allocation counts are
	// machine-independent, so this gate stays strict everywhere.
	Allocs      float64
	AllocsFloor float64
	// MRE is the allowed relative rise in mre_vs_exact (default 0.50) with
	// MREFloor absolute slack (default 0.02): a loose accuracy tripwire for
	// gross estimator breakage, not a statistical test.
	MRE      float64
	MREFloor float64
}

// DefaultTolerances returns the standard gate: 10% on throughput and
// allocations, 50% on accuracy.
func DefaultTolerances() Tolerances {
	return Tolerances{Throughput: 0.10, Allocs: 0.10, AllocsFloor: 0.02, MRE: 0.50, MREFloor: 0.02}
}

func (t Tolerances) withDefaults() Tolerances {
	d := DefaultTolerances()
	if t.Throughput <= 0 {
		t.Throughput = d.Throughput
	}
	if t.Allocs <= 0 {
		t.Allocs = d.Allocs
	}
	if t.AllocsFloor <= 0 {
		t.AllocsFloor = d.AllocsFloor
	}
	if t.MRE <= 0 {
		t.MRE = d.MRE
	}
	if t.MREFloor <= 0 {
		t.MREFloor = d.MREFloor
	}
	return t
}

// Regression is one metric of one workload that got worse than tolerated.
type Regression struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	// Change is the relative change (new-old)/old, negative for drops; 0
	// when old is 0.
	Change float64 `json:"change"`
}

// String renders the regression for terminal output.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%)", r.Workload, r.Metric, r.Old, r.New, r.Change*100)
}

// Compare diffs new against old workload by workload and returns the
// regressions (nil when clean). A workload present in old but missing from
// new is itself a regression — silently dropping a benchmark must not pass
// the gate. Workloads only in new are ignored (additions are fine).
func Compare(base, next *Report, tol Tolerances) []Regression {
	tol = tol.withDefaults()
	newBy := make(map[string]Result, len(next.Results))
	for _, r := range next.Results {
		newBy[r.Workload] = r
	}
	var regs []Regression
	for _, o := range base.Results {
		n, ok := newBy[o.Workload]
		if !ok {
			regs = append(regs, Regression{Workload: o.Workload, Metric: "missing"})
			continue
		}
		if n.EventsPerSec < o.EventsPerSec*(1-tol.Throughput) {
			regs = append(regs, reg(o.Workload, "events_per_sec", o.EventsPerSec, n.EventsPerSec))
		}
		if n.AllocsPerEvent > o.AllocsPerEvent*(1+tol.Allocs)+tol.AllocsFloor {
			regs = append(regs, reg(o.Workload, "allocs_per_event", o.AllocsPerEvent, n.AllocsPerEvent))
		}
		if n.MREVsExact > o.MREVsExact*(1+tol.MRE)+tol.MREFloor {
			regs = append(regs, reg(o.Workload, "mre_vs_exact", o.MREVsExact, n.MREVsExact))
		}
	}
	return regs
}

func reg(workload, metric string, prev, curr float64) Regression {
	r := Regression{Workload: workload, Metric: metric, Old: prev, New: curr}
	if prev != 0 {
		r.Change = (curr - prev) / prev
	}
	return r
}

// FormatComparison renders a human summary of a Compare run: every workload
// with its throughput and allocation deltas, regressions marked.
func FormatComparison(base, next *Report, regs []Regression) string {
	flagged := make(map[string]bool, len(regs))
	for _, r := range regs {
		flagged[r.Workload+"/"+r.Metric] = true
	}
	newBy := make(map[string]Result, len(next.Results))
	for _, r := range next.Results {
		newBy[r.Workload] = r
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s  %14s  %14s  %12s\n", "workload", "events/s", "allocs/event", "mre")
	for _, o := range base.Results {
		n, ok := newBy[o.Workload]
		if !ok {
			fmt.Fprintf(&sb, "%-28s  MISSING FROM NEW REPORT\n", o.Workload)
			continue
		}
		fmt.Fprintf(&sb, "%-28s  %s  %s  %s\n",
			o.Workload,
			delta(o.EventsPerSec, n.EventsPerSec, 14, flagged[o.Workload+"/events_per_sec"]),
			delta(o.AllocsPerEvent, n.AllocsPerEvent, 14, flagged[o.Workload+"/allocs_per_event"]),
			delta(o.MREVsExact, n.MREVsExact, 12, flagged[o.Workload+"/mre_vs_exact"]))
	}
	if len(regs) == 0 {
		sb.WriteString("no regressions\n")
	} else {
		fmt.Fprintf(&sb, "%d regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(&sb, "  REGRESSION %s\n", r)
		}
	}
	return sb.String()
}

// delta formats "old->new" fitting width, with a trailing ! on regressions.
func delta(prev, curr float64, width int, bad bool) string {
	mark := " "
	if bad {
		mark = "!"
	}
	return fmt.Sprintf("%*s%s", width, fmt.Sprintf("%.3g>%.3g", prev, curr), mark)
}

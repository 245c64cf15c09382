package experiment

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// smokeProfile is the tiny profile the whole-suite tests run at.
func smokeProfile() Profile {
	return Profile{Trials: 1, Checkpoints: 5, TrainIterations: 5, TrainStreams: 1, Seed: 1}
}

// TestSuiteGeneratorsSmoke runs every Registry entry end to end with a tiny
// profile and compares its rendered table with testdata/<id>.golden, running
// times masked. It validates wiring (dataset resolution, policy training, run
// aggregation, rendering) and pins the suite's numbers at a fixed seed, not
// statistical quality — that is what cmd/wsdbench and the benchmarks measure.
// Regenerate deliberately with
// `go test ./internal/experiment -run TestSuiteGeneratorsSmoke -update`.
func TestSuiteGeneratorsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow harness smoke test")
	}
	prof := smokeProfile()
	// checks additionally asserts the typed result of some entries; each
	// returns the table it checked, which then meets the golden.
	checks := map[string]func(t *testing.T) *Table{
		"table4": func(t *testing.T) *Table {
			r, err := Table4(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Stats) != 4 {
				t.Fatalf("training stats for %d datasets, want 4", len(r.Stats))
			}
			for ds, per := range r.Stats {
				for pat, st := range per {
					if st.Updates != prof.TrainIterations {
						t.Errorf("%s/%v: %d updates, want %d", ds, pat, st.Updates, prof.TrainIterations)
					}
					if st.Elapsed <= 0 {
						t.Errorf("%s/%v: non-positive elapsed", ds, pat)
					}
				}
			}
			return r.GetTable()
		},
		"table5": func(t *testing.T) *Table {
			r, err := Table5(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.ARE) != 4 {
				t.Fatalf("transfer rows = %d, want 4", len(r.ARE))
			}
			for test, per := range r.ARE {
				if len(per) != 6 { // 5 training sets + WSD-H column
					t.Fatalf("%s: %d columns, want 6", test, len(per))
				}
				for train, are := range per {
					if are < 0 || math.IsNaN(are) {
						t.Errorf("%s/%s: bad ARE %v", test, train, are)
					}
				}
			}
			return r.GetTable()
		},
		"table6": func(t *testing.T) *Table {
			r, err := Table6(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Cells) != 5 {
				t.Fatalf("insert-only cells = %d, want 5", len(r.Cells))
			}
			return r.GetTable()
		},
		"table13": func(t *testing.T) *Table {
			r, err := Table13(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.ARE) != 2 {
				t.Fatalf("scenarios = %d, want 2", len(r.ARE))
			}
			for _, perDS := range r.ARE {
				for ds, variants := range perDS {
					if len(variants) != 3 {
						t.Fatalf("%s: %d variants, want 3", ds, len(variants))
					}
				}
			}
			return r.GetTable()
		},
		"fig1": func(t *testing.T) *Table {
			r, err := Fig1(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Points) < 3 {
				t.Fatalf("scalability points = %d", len(r.Points))
			}
			// Running time must grow with stream size (the paper's linearity
			// claim, asserted loosely as monotonic-ish growth end to end).
			first, last := r.Points[0], r.Points[len(r.Points)-1]
			if last.SecWSDH <= first.SecWSDH {
				t.Errorf("time not growing with |S|: %v -> %v", first.SecWSDH, last.SecWSDH)
			}
			if last.Events <= first.Events {
				t.Errorf("sizes not increasing")
			}
			return r.GetTable()
		},
		"fig2a": func(t *testing.T) *Table {
			r, err := Fig2a(prof)
			if err != nil {
				t.Fatal(err)
			}
			for _, ord := range []string{"Natural", "UAR", "RBFS"} {
				if _, ok := r.ARE[ord]; !ok {
					t.Errorf("missing ordering %s", ord)
				}
			}
			return r.GetTable()
		},
		"fig2b": func(t *testing.T) *Table {
			r, err := Fig2b(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Xs) != 5 {
				t.Fatalf("M sweep points = %d, want 5", len(r.Xs))
			}
			return r.GetTable()
		},
		"fig2c": func(t *testing.T) *Table {
			r, err := Fig2c(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Points) != 4 {
				t.Fatalf("training-size points = %d, want 4", len(r.Points))
			}
			return r.GetTable()
		},
		"fig2d": func(t *testing.T) *Table {
			r, err := Fig2d(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Buckets) == 0 {
				t.Fatal("no weight buckets")
			}
			if math.IsNaN(r.Pearson) || r.Pearson < -1 || r.Pearson > 1 {
				t.Fatalf("Pearson out of range: %v", r.Pearson)
			}
			total := 0
			for _, b := range r.Buckets {
				total += b.Edges
			}
			if total == 0 {
				t.Fatal("buckets empty")
			}
			return r.GetTable()
		},
		"fig5": func(t *testing.T) *Table {
			r, err := Fig5(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Xs) != 10 || r.Xs[5] != "light 0.0" {
				t.Fatalf("beta sweep points: %v, want 5 massive then 5 light", r.Xs)
			}
			// Both halves render as one table, light rows under their own
			// label.
			if rows := r.Rows; len(rows) != 11 || rows[5][0] != "-- light --" {
				t.Fatalf("Fig. 5 table has %d rows:\n%s", len(rows), r.GetTable())
			}
			return r.GetTable()
		},
		"ablation-weights": func(t *testing.T) *Table {
			r, err := WeightFamilies(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.ARE) != 5 {
				t.Fatalf("weight families = %d, want 5", len(r.ARE))
			}
			return r.GetTable()
		},
		"ablation-wrs": func(t *testing.T) *Table {
			r, err := WRSAlphaSweep(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.ARE) != 4 {
				t.Fatalf("alpha sweep = %d, want 4", len(r.ARE))
			}
			return r.GetTable()
		},
		"ablation-ddpg": func(t *testing.T) *Table {
			r, err := DDPGAblation(prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.ARE) != 5 {
				t.Fatalf("ddpg ablation = %d, want 5", len(r.ARE))
			}
			return r.GetTable()
		},
	}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			var tbl *Table
			if check, ok := checks[e.ID]; ok {
				tbl = check(t)
			} else {
				var err error
				if tbl, err = e.Run(prof); err != nil {
					t.Fatal(err)
				}
			}
			checkGolden(t, filepath.Join("testdata", e.ID+".golden"), maskSecs(tbl).String())
		})
	}
}

var update = flag.Bool("update", false, "rewrite the registry goldens under testdata")

// secsCell matches a cell secs formats: the running times that vary by host.
var secsCell = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?m?s$`)

// maskSecs returns a copy of t with every running-time cell replaced by
// "<secs>".
func maskSecs(t *Table) *Table {
	out := *t
	out.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		out.Rows[i] = slices.Clone(row)
		for j, cell := range row {
			if secsCell.MatchString(cell) {
				out.Rows[i][j] = "<secs>"
			}
		}
	}
	return &out
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("table drifted from %s (regenerate deliberately with -update)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGetTableAccessors ensures every result type renders.
func TestGetTableAccessors(t *testing.T) {
	if testing.Short() {
		t.Skip("depends on the smoke suite's cached artifacts")
	}
	prof := smokeProfile()
	r, err := Table6(prof)
	if err != nil {
		t.Fatal(err)
	}
	out := r.GetTable().String()
	if !strings.Contains(out, "Table VI") {
		t.Fatalf("rendered output missing title:\n%s", out)
	}
}

// TestFig2aStableAcrossBuilds: Fig. 2(a) builds its three ordering streams
// afresh on every call, so a later build's streams can be allocated where an
// earlier build's freed ones lived. Each stream must still be scored against
// its own exact counts: the table is the same however many times it is built.
func TestFig2aStableAcrossBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds Fig. 2(a) five times")
	}
	var first string
	for i := range 5 {
		r, err := Fig2a(smokeProfile())
		if err != nil {
			t.Fatal(err)
		}
		if got := r.GetTable().String(); i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("build %d differs from build 0:\n%s\nwant:\n%s", i, got, first)
		}
		runtime.GC()
	}
}

// TestFig2dStableAcrossBuilds: most edges share Fig. 2(d)'s modal weight, so
// the weight buckets must break ties the same way on every build.
func TestFig2dStableAcrossBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds Fig. 2(d) twice")
	}
	var first string
	for i := range 2 {
		r, err := Fig2d(smokeProfile())
		if err != nil {
			t.Fatal(err)
		}
		if got := r.GetTable().String(); i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("second build differs:\n%s\nwant:\n%s", got, first)
		}
	}
}

// TestRegistryIDs: the registry is the one experiment list wsdbench and the
// root benchmarks read, so its ids must be unique and non-empty.
func TestRegistryIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Run == nil || seen[e.ID] {
			t.Fatalf("bad or duplicate registry entry %q", e.ID)
		}
		seen[e.ID] = true
	}
}

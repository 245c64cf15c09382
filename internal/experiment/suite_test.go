package experiment

import (
	"math"
	"strings"
	"testing"
)

// TestSuiteGeneratorsSmoke exercises every table/figure generator end to end
// with a tiny profile. It validates wiring (dataset resolution, policy
// training, run aggregation, rendering), not statistical quality — that is
// what cmd/wsdbench and the benchmarks measure.
func TestSuiteGeneratorsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow harness smoke test")
	}
	prof := Profile{Trials: 1, Checkpoints: 5, TrainIterations: 5, TrainStreams: 1, Seed: 1}

	t.Run("table4", func(t *testing.T) {
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
	})

	t.Run("table5", func(t *testing.T) {
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
	})

	t.Run("table6", func(t *testing.T) {
		r, err := Table6(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Cells) != 5 {
			t.Fatalf("insert-only cells = %d, want 5", len(r.Cells))
		}
	})

	t.Run("table13", func(t *testing.T) {
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
	})

	t.Run("fig1", func(t *testing.T) {
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
	})

	t.Run("fig2a", func(t *testing.T) {
		r, err := Fig2a(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range []string{"Natural", "UAR", "RBFS"} {
			if _, ok := r.ARE[ord]; !ok {
				t.Errorf("missing ordering %s", ord)
			}
		}
	})

	t.Run("fig2b", func(t *testing.T) {
		r, err := Fig2b(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Xs) != 5 {
			t.Fatalf("M sweep points = %d, want 5", len(r.Xs))
		}
	})

	t.Run("fig2c", func(t *testing.T) {
		r, err := Fig2c(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 4 {
			t.Fatalf("training-size points = %d, want 4", len(r.Points))
		}
	})

	t.Run("fig2d", func(t *testing.T) {
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
	})

	t.Run("fig5", func(t *testing.T) {
		r, err := Fig5(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Massive.Xs) != 5 || len(r.Light.Xs) != 5 {
			t.Fatalf("beta sweep points: %d massive, %d light", len(r.Massive.Xs), len(r.Light.Xs))
		}
		// The registry renders both sweeps as one table, light rows under
		// their own label, without touching the massive sweep's table.
		for range 2 {
			rows := r.GetTable().Rows
			if len(rows) != 11 || rows[5][0] != "-- light --" || len(r.Massive.Table.Rows) != 5 {
				t.Fatalf("merged Fig. 5 table has %d rows, massive table %d:\n%s", len(rows), len(r.Massive.Table.Rows), r.GetTable())
			}
		}
	})

	t.Run("ablations", func(t *testing.T) {
		wf, err := WeightFamilies(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(wf.ARE) != 5 {
			t.Fatalf("weight families = %d, want 5", len(wf.ARE))
		}
		wa, err := WRSAlphaSweep(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(wa.ARE) != 4 {
			t.Fatalf("alpha sweep = %d, want 4", len(wa.ARE))
		}
		dd, err := DDPGAblation(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(dd.ARE) != 5 {
			t.Fatalf("ddpg ablation = %d, want 5", len(dd.ARE))
		}
	})
}

// TestGetTableAccessors ensures every result type renders.
func TestGetTableAccessors(t *testing.T) {
	if testing.Short() {
		t.Skip("depends on the smoke suite's cached artifacts")
	}
	prof := Profile{Trials: 1, Checkpoints: 5, TrainIterations: 5, TrainStreams: 1, Seed: 1}
	r, err := Table6(prof)
	if err != nil {
		t.Fatal(err)
	}
	out := r.GetTable().String()
	if !strings.Contains(out, "Table VI") {
		t.Fatalf("rendered output missing title:\n%s", out)
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

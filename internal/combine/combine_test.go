package combine

import (
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"uniform", []float64{2, 2, 2, 2}, 2},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"heavy tail", []float64{1, 9, 2, 8, 100}, 24},
		{"negative", []float64{-3, 3}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); got != c.want {
			t.Errorf("%s: Mean(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

func TestSumCombine(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"partitions", []float64{10, 20, 30}, 60},
		{"negative", []float64{-3, 3}, 0},
	}
	for _, c := range cases {
		if got := Sum(c.in); got != c.want {
			t.Errorf("%s: Sum(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

// TestSumCombineVectorsRejectionParity: the width-mismatch and empty-member
// guards in Vectors are combiner-independent — Sum must reject exactly the
// inputs Mean and MedianOfMeans reject, because a partitioned fleet mixing
// pattern sets is just as wrong as a broadcast one.
func TestSumCombineVectorsRejectionParity(t *testing.T) {
	bad := [][][]float64{
		{{1, 2, 3}, {1, 2}},
		nil,
		{},
	}
	for i, members := range bad {
		for name, fn := range map[string]Func{"sum": Sum, "mean": Mean, "mom": MedianOfMeans(2)} {
			if _, err := Vectors(members, fn); err == nil {
				t.Errorf("case %d: Vectors must reject bad members under %s", i, name)
			}
		}
	}
	// And on valid input Sum composes index by index like the others.
	members := [][]float64{{10, 100}, {20, 200}, {30, 300}}
	out, err := Vectors(members, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 60 || out[1] != 600 {
		t.Errorf("Vectors(Sum) = %v, want [60 600]", out)
	}
}

func TestMedianOfMeansDegenerateCases(t *testing.T) {
	in := []float64{5, 1, 9, 3}
	cases := []struct {
		name   string
		groups int
		in     []float64
		want   float64
	}{
		{"groups=0 degenerates to the mean", 0, in, 4.5},
		{"groups=1 degenerates to the mean", 1, in, 4.5},
		// groups >= K is the plain median: sorted means are the elements
		// themselves, so for {1,3,5,9} the median is (3+5)/2.
		{"groups=K median", 4, in, 4},
		{"groups>K median", 99, in, 4},
		{"groups=K median, odd K", 5, []float64{1, 9, 2, 8, 100}, 8},
		// An even group count takes the mean of the middle two group means:
		// {1,3} and {10,20} average to 2 and 15.
		{"even group count", 2, []float64{1, 3, 10, 20}, (2 + 15) / 2.0},
		{"empty input", 3, nil, 0},
	}
	for _, c := range cases {
		if got := MedianOfMeans(c.groups)(append([]float64(nil), c.in...)); got != c.want {
			t.Errorf("%s: MedianOfMeans(%d)(%v) = %v, want %v", c.name, c.groups, c.in, got, c.want)
		}
	}
}

// TestMedianOfMeansResistsHeavyTail is the adversarial case the combiner
// exists for: inverse-probability estimates are non-negative with a heavy
// right tail, so one member that drew a tiny inclusion probability can report
// an estimate orders of magnitude above the truth. The mean is dragged by the
// outlier proportionally; the median-of-means must stay near the bulk.
func TestMedianOfMeansResistsHeavyTail(t *testing.T) {
	truth := 100.0
	members := make([]float64, 12)
	rng := rand.New(rand.NewSource(7))
	for i := range members {
		members[i] = truth * (0.9 + 0.2*rng.Float64()) // bulk within ±10%
	}
	members[3] = 1e9 // one catastrophic tail draw

	mean := Mean(members)
	if mean < 1e7 {
		t.Fatalf("mean %v should be dragged by the outlier (sanity check)", mean)
	}
	for _, groups := range []int{3, 4, 6} {
		mom := MedianOfMeans(groups)(members)
		if math.Abs(mom-truth) > 0.25*truth {
			t.Errorf("MedianOfMeans(%d) = %v, want within 25%% of %v despite one 1e9 outlier", groups, mom, truth)
		}
	}
}

// TestMedianOfMeansBreakdownPoint: with more corrupted members than half the
// groups, no combiner can save the estimate — but up to floor((g-1)/2)
// corrupted groups the median of group means must hold.
func TestMedianOfMeansBreakdownPoint(t *testing.T) {
	truth := 50.0
	members := []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 1e8, 1e8, 1e8}
	// 6 groups of 2: at most 3 groups touch an outlier, median of 6 means
	// needs >= 4 clean group means — the three outliers land in groups 5 and
	// 6 (contiguous grouping), leaving 4 clean means.
	got := MedianOfMeans(6)(members)
	if math.Abs(got-truth) > 1e-9 {
		t.Errorf("MedianOfMeans(6) = %v, want %v with 3/12 corrupted members", got, truth)
	}
}

func TestMedianOfMeansDoesNotRetainScratch(t *testing.T) {
	in := []float64{9, 1, 5}
	fn := MedianOfMeans(3)
	_ = fn(in)
	// The combiner may reorder its argument but must not keep it: calling
	// again with different contents must reflect only the new contents.
	in[0], in[1], in[2] = 100, 100, 100
	if got := fn(in); got != 100 {
		t.Errorf("second call = %v, want 100 (stale state retained?)", got)
	}
}

func TestVectors(t *testing.T) {
	members := [][]float64{
		{10, 100, 1000},
		{20, 200, 2000},
		{30, 300, 3000},
	}
	out, err := Vectors(members, Mean)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{20, 200, 2000}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestVectorsRejectsMixedWidths(t *testing.T) {
	// A 3-pattern worker and a 2-pattern worker are not estimating the same
	// vector; combining them index by index would mix unrelated quantities.
	_, err := Vectors([][]float64{{1, 2, 3}, {1, 2}}, Mean)
	if err == nil {
		t.Fatal("mixed-width members must be rejected")
	}
	_, err = Vectors(nil, Mean)
	if err == nil {
		t.Fatal("empty member set must be rejected")
	}
	_, err = Vectors([][]float64{}, Mean)
	if err == nil {
		t.Fatal("zero-length member set must be rejected")
	}
}

// TestShardAndVectorsAgree: combining a vector index by index with the same
// combiner the shard ensemble uses must equal combining each index directly —
// the property that makes the in-process and cross-process ensembles
// interchangeable.
func TestShardAndVectorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	members := make([][]float64, 5)
	for i := range members {
		members[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	for name, fn := range map[string]Func{"mean": Mean, "mom": MedianOfMeans(2)} {
		out, err := Vectors(members, fn)
		if err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < 2; idx++ {
			col := make([]float64, len(members))
			for j, m := range members {
				col[j] = m[idx]
			}
			if want := fn(col); out[idx] != want {
				t.Errorf("%s: index %d: Vectors gave %v, direct combine gave %v", name, idx, out[idx], want)
			}
		}
	}
}

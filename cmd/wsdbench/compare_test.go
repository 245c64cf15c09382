package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

func writeReport(t *testing.T, dir, name string, seed int64, trials int, eventsPerSec, allocsPerEvent float64) string {
	t.Helper()
	rep := &benchsuite.Report{
		SchemaVersion: benchsuite.SchemaVersion,
		Suite:         benchsuite.SuiteName,
		Seed:          seed,
		Trials:        trials,
		Results: []benchsuite.Result{{
			Workload:       "pipeline/dense-community",
			EventsPerSec:   eventsPerSec,
			AllocsPerEvent: allocsPerEvent,
			MREVsExact:     0.05,
		}},
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareExitCodes pins the CLI gate contract: a synthetic >10%
// throughput regression (and separately an allocation regression) exits
// non-zero, an unchanged report exits zero, and a loosened tolerance lets a
// drop through. CI's regression gate is exactly this code path.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 1, 1, 100_000, 1.0)

	if code := runCompare(base, writeReport(t, dir, "same.json", 1, 1, 100_000, 1.0), benchsuite.Tolerances{}); code != 0 {
		t.Fatalf("identical reports exit %d, want 0", code)
	}
	if code := runCompare(base, writeReport(t, dir, "slow.json", 1, 1, 88_000, 1.0), benchsuite.Tolerances{}); code != 1 {
		t.Fatalf("12%% throughput regression exits %d, want 1", code)
	}
	if code := runCompare(base, writeReport(t, dir, "leaky.json", 1, 1, 100_000, 5.0), benchsuite.Tolerances{}); code != 1 {
		t.Fatalf("5x allocation regression exits %d, want 1", code)
	}
	loose := benchsuite.Tolerances{Throughput: 0.5}
	if code := runCompare(base, filepath.Join(dir, "slow.json"), loose); code != 0 {
		t.Fatalf("12%% drop at 50%% tolerance exits %d, want 0", code)
	}
}

// TestCompareRefusesMismatchedRun: a report recorded at another seed or trial
// count averages different trial seeds, so its MREs cannot be held to the
// baseline's; -compare refuses it with exit 2, even when every cell would
// pass, and names the field that differs.
func TestCompareRefusesMismatchedRun(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 1, 5, 100_000, 1.0)
	for _, tc := range []struct {
		name   string
		seed   int64
		trials int
		field  string
	}{
		{"seed.json", 2, 5, "seed"},
		{"trials.json", 1, 2, "trials"},
	} {
		next := writeReport(t, dir, tc.name, tc.seed, tc.trials, 100_000, 1.0)
		var code int
		stderr := captureStderr(t, func() { code = runCompare(base, next, benchsuite.Tolerances{}) })
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr, "has "+tc.field+" ") {
			t.Errorf("%s: stderr %q does not name the field %q", tc.name, stderr, tc.field)
		}
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

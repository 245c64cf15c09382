package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.ingest", Start: 0, End: 100},
		// Two overlapping children: [10,50) and [30,70) cover [10,70).
		{ID: 2, Name: "a", Start: 10, End: 50, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 70, Parent: 1},
		// A child reaching past its parent is clipped to it: covers [90,100).
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1},
		// A grandchild nested in span 2 reduces 2's self time, not 1's.
		{ID: 5, Name: "d", Start: 20, End: 25, Parent: 2},
		// A root with no children keeps its whole duration.
		{ID: 6, Name: "e", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := []int64{100 - 60 - 10, 40 - 5, 40, 30, 5, 60}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestCoveredDisjointAndContained(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 60, End: 80}, {Start: 0, End: 10}, {Start: 62, End: 70}, {Start: 150, End: 160}}
	if got := covered(parent, kids); got != 30 {
		t.Errorf("covered %d, want 30", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children %d, want 0", got)
	}
}

func TestLinkParents(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.ingest", Start: 0, End: 100, Req: 7, Worker: -1},
		{ID: 2, Name: "cluster.ingest", Start: 5, End: 95, Req: 7, Worker: -1},
		{ID: 3, Name: "rt.ingest", Start: 10, End: 60, Worker: 0},
		{ID: 4, Name: "rt.ingest", Start: 12, End: 80, Worker: 1},
		{ID: 5, Name: "serve.ingest", Start: 15, End: 55, Worker: 0},
		{ID: 6, Name: "serve.ingest", Start: 20, End: 75, Worker: 1},
		// A concurrent read: its round trip must not attach to the ingest.
		{ID: 7, Name: "cluster.estimate", Start: 30, End: 50, Req: 8, Worker: -1},
		{ID: 8, Name: "rt.estimate", Start: 31, End: 49, Worker: 0},
		{ID: 9, Name: "client.estimate", Start: 29, End: 51, Req: 8, Worker: -1},
	}
	linkParents(spans)
	want := map[int64]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4, 7: 9, 8: 7, 9: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 %v, want 3", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestPunctualSchedule(t *testing.T) {
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	p := punctual{done: t0}
	// Due at 0, sent 1 ms late by the generator's timer, served in 0.5 ms:
	// the timer's delay is not the system's.
	if lat, queued := p.latency(at(0), at(1000), at(1500)); lat != 0.5 || queued {
		t.Errorf("late send: latency %v ms, queued %v; want 0.5, false", lat, queued)
	}
	// Due at 0.3 ms, while the first request is in service until 0.5 ms on
	// the punctual schedule: it waits 0.2 ms and is served in 0.4 ms.
	if lat, queued := p.latency(at(300), at(1500), at(1900)); math.Abs(lat-0.6) > 1e-9 || !queued {
		t.Errorf("queued request: latency %v ms, queued %v; want 0.6, true", lat, queued)
	}
}

func TestWindowedPercentile(t *testing.T) {
	t0 := time.Now()
	w := windowed{start: t0}
	// 5000 samples over 5 s, of 1 ms, except that the whole fourth second
	// stalls at 100 ms: the median over windows ignores the spoiled window.
	for i := range 5000 {
		v := 1.0
		if i >= 3000 && i < 4000 {
			v = 100
		}
		w.add(t0.Add(time.Duration(i)*time.Millisecond), v)
	}
	if got := w.percentile(99); got != 1 {
		t.Errorf("windowed p99 %v, want 1", got)
	}
	// Too few samples for a window of their own: the plain percentile.
	few := windowed{start: t0}
	for i, v := range []float64{5, 1, 4, 2, 3} {
		few.add(t0.Add(time.Duration(i)*time.Second), v)
	}
	if got := few.percentile(99); got != 5 {
		t.Errorf("p99 of five samples %v, want 5", got)
	}
}

func TestSummarizeDirReportsOverhead(t *testing.T) {
	dir := t.TempDir()
	tf := traceFile{
		Workload: "w", Seed: 1,
		EndToEnd: map[string]metric{"throughput_eps": {Value: 90, Unit: "ev/s"}},
		Spans:    []span{{ID: 1, Name: "core.batch", Layer: "core", Start: 0, End: 1e6}},
	}
	if err := writeJSONFile(dir, "w.trace.json", tf); err != nil {
		t.Fatal(err)
	}
	rf := resultFile{Workload: "w", Seed: 1, Metrics: map[string]metric{"throughput_eps": {Value: 100, Unit: "ev/s"}}}
	if err := writeJSONFile(dir, "w.result.json", rf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarizeDir(dir, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.batch", "layer core", "tracing overhead throughput_eps", "-10 ev/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	if err := os.Remove(filepath.Join(dir, "w.trace.json")); err != nil {
		t.Fatal(err)
	}
	if err := summarizeDir(dir, &out); err == nil {
		t.Error("summarizing a directory without traces succeeded")
	}
}

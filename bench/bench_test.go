package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the workload table and
// the metric tables in step: same workloads, same metric names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads() {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	pins, err := committedPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range code {
		if _, ok := pins[name]; !ok {
			t.Errorf("pins.json has no entry for %s", name)
		}
	}
	check := func(kind string, listed []metricDef, defs []metricDef) {
		if !slices.Equal(listed, defs) {
			t.Errorf("%s metrics: BENCHMARK.json lists %v, code reports %v", kind, listed, defs)
		}
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end-to-end", e2e, endToEndMetrics)
	check("per-layer", layers, layerMetrics)
}

// runToy runs a toy-scale workload against its own freshly computed pin.
func runToy(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	p, err := inputPin(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(w, options{seed: 7, seconds: 300 * time.Millisecond, trace: trace, pin: p, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s (trace %v): correct %v, %d of %d operations failed; notes %q", w.name, trace, res.correct, res.failed, res.attempted, res.notes)
	}
	return res
}

// checkEmitted fails when values names a metric outside defs, or holds a
// non-finite value.
func checkEmitted(t *testing.T, workload string, defs []metricDef, values map[string]float64) {
	t.Helper()
	for name, v := range values {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			t.Errorf("%s emits unlisted metric %s", workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v", workload, name, v)
		}
	}
}

// TestToyRuns runs every workload at toy scale, untraced and traced. Every
// end-to-end metric must be measured on every workload, every per-layer
// metric on at least one, all finite; and the traced run's pinned-seed
// estimates must equal the untraced run's bit for bit, which shows the
// tracing wrappers do not change what the program computes.
func TestToyRuns(t *testing.T) {
	layersSeen := map[string]bool{}
	for _, w := range toyWorkloads() {
		plain := runToy(t, w, false)
		traced := runToy(t, w, true)
		checkEmitted(t, w.name, endToEndMetrics, plain.endToEnd)
		checkEmitted(t, w.name, layerMetrics, traced.layers)
		for _, d := range endToEndMetrics {
			if _, ok := plain.endToEnd[d.name]; !ok {
				t.Errorf("%s does not measure %s", w.name, d.name)
			}
		}
		for name, v := range traced.layers {
			if v != 0 {
				layersSeen[name] = true
			}
		}
		if len(plain.fixed) == 0 || !slices.Equal(plain.fixed, traced.fixed) {
			t.Errorf("%s: pinned-seed estimates differ: untraced %v, traced %v", w.name, plain.fixed, traced.fixed)
		}
		if len(traced.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
	// Worker errors are 0 on a healthy toy run, and its light load queues
	// no request.
	zeroOK := []string{"cluster.worker_errors", "loadgen.queued_ratio"}
	for _, d := range layerMetrics {
		if !layersSeen[d.name] && !slices.Contains(zeroOK, d.name) {
			t.Errorf("per-layer metric %s is 0 on every workload", d.name)
		}
	}
}

// TestDriftAbortsRun corrupts each field of a workload's pin and expects the
// run to refuse with a workload-drift error before measuring anything.
func TestDriftAbortsRun(t *testing.T) {
	for _, w := range toyWorkloads() {
		good, err := inputPin(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, corrupt := range []func(*pin){
			func(p *pin) { p.Oracle++ },
			func(p *pin) { p.Fingerprint = "0000000000000000" },
			func(p *pin) { p.Events-- },
			func(p *pin) { p.Policy = "000000000000" },
		} {
			bad := good
			corrupt(&bad)
			_, err := run(w, options{seed: 1, seconds: time.Millisecond, pin: bad, workDir: t.TempDir()})
			if err == nil || !strings.Contains(err.Error(), "workload drift") {
				t.Errorf("%s with pin %+v: got %v, want a workload drift error", w.name, bad, err)
			}
		}
	}
}

// TestInputCache runs a toy batch workload twice with a cache directory: the
// first run stores its checked inputs, the second runs from them with the
// same pinned-seed estimates. A cached stream that is not the pinned one
// makes the run fail with a workload drift error.
func TestInputCache(t *testing.T) {
	w := toyWorkloads()[0]
	p, err := inputPin(w)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := options{seed: 7, seconds: 300 * time.Millisecond, pin: p, workDir: t.TempDir(), cacheDir: dir}
	generated, err := run(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, err := w.batch.cachedInputs(dir, w.name); err != nil || !cached {
		t.Fatalf("after a run, cached %v, err %v", cached, err)
	}
	fromCache, err := run(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(generated.fixed, fromCache.fixed) {
		t.Errorf("pinned-seed estimates: generated inputs %v, cached %v", generated.fixed, fromCache.fixed)
	}

	other, err := toyWorkloads()[1].batch.inputs()
	if err != nil {
		t.Fatal(err)
	}
	key, err := cacheKey(dir, w.name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(key+".wsdb", other.encoded, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(w, opt); err == nil || !strings.Contains(err.Error(), "workload drift") {
		t.Errorf("run from a replaced cached stream: got %v, want a workload drift error", err)
	}
}

// TestCommittedPolicy checks the committed WSD-L artifact decodes and is the
// one pins.json names.
func TestCommittedPolicy(t *testing.T) {
	pins, err := committedPins()
	if err != nil {
		t.Fatal(err)
	}
	id, err := policyID("dense4")
	if err != nil {
		t.Fatal(err)
	}
	if pins["dense4-wsdl"].Policy != id {
		t.Errorf("testdata/dense4.wsdp has ID %s, pins.json says %s", id, pins["dense4-wsdl"].Policy)
	}
}

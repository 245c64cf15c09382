package benchsuite

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion guards the report wire format. Bump it on any
// field-semantics change; the comparator refuses to diff across versions.
const SchemaVersion = 1

// SuiteName identifies this suite in reports, so a comparator cannot be
// pointed at JSON from an unrelated tool by accident.
const SuiteName = "wsd-ingest"

// Result is one workload's measurement.
type Result struct {
	// Workload is "<ingest>/<stream>", the comparator's join key.
	Workload string `json:"workload"`
	Stream   string `json:"stream"`
	Ingest   string `json:"ingest"`
	Pattern  string `json:"pattern"`
	// Events is the stream length; every trial processes all of them.
	Events int `json:"events"`
	// EventsPerSec and NsPerEvent measure wall-clock ingest rate, averaged
	// over the trials.
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	// AllocsPerEvent and BytesPerEvent are heap allocation counts and bytes
	// per event across the whole ingest path (all goroutines), from
	// runtime.MemStats deltas.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// MREVsExact is the mean relative error of the final estimate against
	// the exact count, over the trials.
	MREVsExact float64 `json:"mre_vs_exact"`
	// Exact is the exact pattern count at stream end.
	Exact float64 `json:"exact"`

	// The fields below are recorded only by sustained-load rows (cmd/wsdload
	// driving a serving deployment at a target rate); suite cells leave them
	// zero. TargetEventsPerSec is the closed-loop pacer's target and
	// DurationSecs the measured wall-clock run length.
	TargetEventsPerSec float64 `json:"target_events_per_sec,omitempty"`
	DurationSecs       float64 `json:"duration_secs,omitempty"`
	// Ingest/Estimate percentiles are per-request HTTP latencies in
	// milliseconds over the whole run.
	IngestP50Ms   float64 `json:"ingest_p50_ms,omitempty"`
	IngestP95Ms   float64 `json:"ingest_p95_ms,omitempty"`
	IngestP99Ms   float64 `json:"ingest_p99_ms,omitempty"`
	EstimateP50Ms float64 `json:"estimate_p50_ms,omitempty"`
	EstimateP95Ms float64 `json:"estimate_p95_ms,omitempty"`
	EstimateP99Ms float64 `json:"estimate_p99_ms,omitempty"`
	// Errors counts failed requests (non-2xx or transport failures);
	// DegradedReads counts estimate replies served below the full fleet.
	Errors        int64 `json:"errors,omitempty"`
	DegradedReads int64 `json:"degraded_reads,omitempty"`
}

// Report is a full suite run: the machine-readable artifact recorded as
// BENCH_<date>.json and compared across commits.
type Report struct {
	SchemaVersion int      `json:"schema_version"`
	Suite         string   `json:"suite"`
	Seed          int64    `json:"seed"`
	Trials        int      `json:"trials"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	CPUs          int      `json:"cpus"`
	Results       []Result `json:"results"`
}

// Encode serializes the report as indented JSON with a trailing newline,
// ready to commit.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchsuite: encode report: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeReport parses and validates a report produced by Encode.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchsuite: decode report: %w", err)
	}
	if r.Suite != SuiteName {
		return nil, fmt.Errorf("benchsuite: report is from suite %q, want %q", r.Suite, SuiteName)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchsuite: report schema version %d unsupported (want %d)", r.SchemaVersion, SchemaVersion)
	}
	if len(r.Results) == 0 {
		return nil, fmt.Errorf("benchsuite: report holds no results")
	}
	return &r, nil
}

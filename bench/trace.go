package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/weights"
)

// reqHeader carries the load generator's request ID to the coordinator, so
// the coordinator's handler span can name the client span that caused it.
const reqHeader = "X-Bench-Req"

// maxSpans caps the spans kept in memory; spans past the cap are counted but
// dropped. Metrics never depend on the kept spans alone: the batch layers
// aggregate into counters and the served reference step stays far below it.
const maxSpans = 200_000

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is the ID of the span that caused this
// one (0 for a root); Req is the load generator's request ID (0 when the
// span is not part of a client request); Worker is the shard or worker
// index (-1 when not applicable).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Worker int    `json:"worker"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, which is how
// untraced runs share the traced code paths. Spans are kept only while the
// tracer is on, so a served run traces its reference step alone.
type tracer struct {
	origin  time.Time
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer's origin (0 for a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// add records s while the tracer is on, assigning its ID (its 1-based index).
func (t *tracer) add(s span) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
}

// snapshot returns a copy of the kept spans and the count dropped.
func (t *tracer) snapshot() ([]span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans), t.dropped
}

// endpoint names the request path's operation: "ingest", "estimate" or
// "other".
func endpoint(path string) string {
	switch path {
	case "/ingest", "/estimate":
		return path[1:]
	}
	return "other"
}

// middleware records a span named layer.<endpoint> around every request h
// serves, carrying the load generator's request ID when present.
func (t *tracer) middleware(layer string, worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t.add(span{Name: layer + "." + endpoint(r.URL.Path), Layer: layer, Start: start, End: t.now(), Req: req, Worker: worker})
	})
}

// traceTransport is the coordinator's RoundTripper in traced runs: it records
// one span per worker round trip, from the request until the coordinator
// finished reading the reply body, and counts failed round trips.
type traceTransport struct {
	base    http.RoundTripper
	tr      *tracer
	workers map[string]int // "host:port" -> worker index
	errors  atomic.Int64
}

func (t *traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := t.tr.now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.errors.Add(1)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.errors.Add(1)
	}
	worker, ok := t.workers[r.URL.Host]
	if !ok {
		worker = -1
	}
	name := "rt." + endpoint(r.URL.Path)
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		t.tr.add(span{Name: name, Layer: "http", Start: start, End: t.tr.now(), Worker: worker})
	}}
	return resp, nil
}

// spanBody ends its round-trip span once, at EOF or Close, whichever comes
// first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// linkParents resolves the parents the spans could not name when recorded:
// a coordinator span's parent is the client span with the same request ID; a
// worker round trip's parent is the coordinator span of the same endpoint
// that contains it in time; a worker handler span's parent is the round trip
// to that worker, of the same endpoint, that contains it. Spans of one
// endpoint never overlap each other at one level (one connection per
// endpoint, and the coordinator serializes broadcasts), so containment is
// unambiguous.
func linkParents(spans []span) {
	byReq := map[string]int64{}
	intervals := map[string][]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") && s.Req != 0 {
			byReq[strings.TrimPrefix(s.Name, "client.")+"#"+strconv.FormatInt(s.Req, 10)] = s.ID
		}
		intervals[containerKey(s.Name, s.Worker)] = append(intervals[containerKey(s.Name, s.Worker)], s)
	}
	for _, list := range intervals {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		op := s.Name[strings.IndexByte(s.Name, '.')+1:]
		switch {
		case strings.HasPrefix(s.Name, "cluster.") && s.Req != 0:
			s.Parent = byReq[op+"#"+strconv.FormatInt(s.Req, 10)]
		case strings.HasPrefix(s.Name, "rt."):
			s.Parent = containing(intervals[containerKey("cluster."+op, -1)], *s)
		case strings.HasPrefix(s.Name, "serve."):
			s.Parent = containing(intervals[containerKey("rt."+op, s.Worker)], *s)
		}
	}
}

// containerKey groups spans that can contain one another's children:
// coordinator spans by name, round trips and worker spans by name and worker.
func containerKey(name string, worker int) string {
	if strings.HasPrefix(name, "cluster.") {
		worker = -1
	}
	return name + "@" + strconv.Itoa(worker)
}

// containing returns the ID of the span in list (sorted by start) whose
// interval contains c, or 0.
func containing(list []span, c span) int64 {
	i := sort.Search(len(list), func(i int) bool { return list[i].Start > c.Start }) - 1
	if i >= 0 && list[i].End >= c.End {
		return list[i].ID
	}
	return 0
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval that its children cover. Overlapping
// children (a coordinator fanning out to two workers at once) count their
// union once; children reaching outside the parent are clipped to it.
func selfTimes(spans []span) []int64 {
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := map[int][]span{}
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered returns the length of the union of the kids' intervals clipped to
// parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// timedCounter is the traced stand-in for a shard's core counter: it records
// a core span around every ProcessBatch and accumulates the busy time and
// event count. Its fields are written by the shard's worker goroutine only
// and read inside a Quiesce barrier.
type timedCounter struct {
	*core.Counter
	tr     *tracer
	shard  int
	busy   int64
	events int64
}

func (c *timedCounter) ProcessBatch(evs []stream.Event) {
	start := c.tr.now()
	c.Counter.ProcessBatch(evs)
	end := c.tr.now()
	c.busy += end - start
	c.events += int64(len(evs))
	c.tr.add(span{Name: "core.batch", Layer: "core", Start: start, End: end, Worker: c.shard})
}

// weightProbe wraps a weight function to count what the enumeration hands
// it: calls, pattern instances completed, sampled endpoint degrees, and the
// time of one call in 64. One probe serves one counter goroutine; the
// counters are atomic so the run can read them at any time.
type weightProbe struct {
	calls, instances, degrees atomic.Int64
	timedCalls, timedNs       atomic.Int64
}

// timedEvery samples one weight call in this many for timing, so the clock
// read does not dominate a call that costs tens of nanoseconds.
const timedEvery = 64

func (p *weightProbe) wrap(w weights.Func) weights.Func {
	return func(s weights.State) float64 {
		n := p.calls.Add(1)
		p.instances.Add(int64(s.Instances))
		p.degrees.Add(int64(s.DegU + s.DegV))
		if n%timedEvery != 0 {
			return w(s)
		}
		start := time.Now()
		v := w(s)
		p.timedNs.Add(int64(time.Since(start)))
		p.timedCalls.Add(1)
		return v
	}
}

// probeMetrics derives the enumeration and weight-layer metrics from the
// probes of counters that together did busyNs of core work over events
// stream events.
func probeMetrics(probes []*weightProbe, events, busyNs float64) map[string]float64 {
	var calls, instances, degrees, timedCalls, timedNs float64
	for _, p := range probes {
		calls += float64(p.calls.Load())
		instances += float64(p.instances.Load())
		degrees += float64(p.degrees.Load())
		timedCalls += float64(p.timedCalls.Load())
		timedNs += float64(p.timedNs.Load())
	}
	nsPerCall := ratio(timedNs, timedCalls)
	return map[string]float64{
		"pattern.instances_per_insert":  ratio(instances, calls),
		"reservoir.sampled_degree_mean": ratio(degrees, calls),
		"weights.calls_per_event":       ratio(calls, events),
		"weights.ns_per_call":           nsPerCall,
		"weights.share_of_core":         ratio(nsPerCall*calls, busyNs),
	}
}

// traceFile is what a traced run writes to <dir>/<workload>.trace.json:
// the per-layer metrics, the traced run's end-to-end values (for the
// tracing overhead) and the spans themselves.
type traceFile struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Metrics   map[string]metric `json:"metrics"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Spans     []span            `json:"spans"`
	Dropped   int64             `json:"dropped_spans"`
	GoVersion string            `json:"go_version"`
}

// resultFile is what an untraced run writes to <dir>/<workload>.result.json,
// the other half of the tracing-overhead comparison.
type resultFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Metrics  map[string]metric `json:"metrics"`
}

// writeJSONFile writes v as JSON to dir/name, creating dir.
func writeJSONFile(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// layerRow is one line of the trace summary: a span name's count, total and
// self time.
type layerRow struct {
	name, layer string
	count       int
	total, self int64
	share       float64
}

// summarizeSpans aggregates spans by name: count, total duration, self time
// and each name's share of all self time.
func summarizeSpans(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var all int64
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name, layer: s.Layer}
			rows[s.Name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += self[i]
		all += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.share = ratio(float64(r.self), float64(all))
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// summarizeDir prints, for every <workload>.trace.json in dir, the span
// summary by name and by layer, and the tracing overhead: each end-to-end
// metric of the traced run minus that of the workload's last untraced run
// (<workload>.result.json), when one exists.
func summarizeDir(dir string, w io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.trace.json files in %s", dir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		var tf traceFile
		if err := readJSONFile(path, &tf); err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s (seed %d, %d spans, %d dropped)\n", tf.Workload, tf.Seed, len(tf.Spans), tf.Dropped)
		rows := summarizeSpans(tf.Spans)
		byLayer := map[string]float64{}
		fmt.Fprintf(w, "  %-18s %-8s %8s %12s %12s %7s\n", "span", "layer", "count", "total_ms", "self_ms", "self%")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-18s %-8s %8d %12.3f %12.3f %6.1f%%\n", r.name, r.layer, r.count,
				float64(r.total)/1e6, float64(r.self)/1e6, 100*r.share)
			byLayer[r.layer] += r.share
		}
		layers := make([]string, 0, len(byLayer))
		for l := range byLayer {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "  layer %-8s self share %5.1f%%\n", l, 100*byLayer[l])
		}
		var rf resultFile
		resultPath := filepath.Join(dir, tf.Workload+".result.json")
		if err := readJSONFile(resultPath, &rf); err != nil {
			fmt.Fprintf(w, "  tracing overhead: no untraced result at %s\n", resultPath)
			continue
		}
		names := make([]string, 0, len(tf.EndToEnd))
		for name := range tf.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			traced, untraced := tf.EndToEnd[name], rf.Metrics[name]
			fmt.Fprintf(w, "  tracing overhead %-16s %+.6g %s (traced %.6g, untraced %.6g)\n",
				name, traced.Value-untraced.Value, traced.Unit, traced.Value, untraced.Value)
		}
	}
	return nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

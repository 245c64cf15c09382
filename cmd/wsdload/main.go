// Command wsdload drives a serving deployment at a sustained event rate and
// measures what it delivers: achieved throughput, per-request ingest and
// estimate latency percentiles, and error/degraded-read counts, emitted in
// the benchsuite report schema so latency rows live next to the ingest
// microbenchmarks and ride the same tooling.
//
// The load is a closed-loop pacer: batches are dispatched on a fixed
// schedule derived from -rate and -batch, and when the target falls behind
// (the server is saturated) the pacer sends as fast as replies return
// instead of queueing unbounded work — the achieved events/sec column then
// reports the deployment's actual capacity. Every -estimate-every batches an
// /estimate read is interleaved, so the read path is measured under write
// load, the way a dashboard experiences it.
//
// The event stream is synthetic and endless: a seeded feasible
// insert/delete churn (deletes only of present edges) over a fixed vertex
// set, generated faster than any server ingests it.
//
// Usage:
//
//	wsdload -fleet 3 -rate 50000 -duration 10s        # self-contained soak
//	wsdload -addr http://host:8080 -rate 100000       # against a live deployment
//	wsdload -fleet 3 -window 5000 -json               # windowed workers, JSON report
//
// With -fleet N the harness starts N in-process wsdserve workers and a
// coordinator front end on loopback and drives the coordinator; with -addr
// it drives an existing worker or coordinator. -max-p99 turns the run into
// an assertion: nonzero exit when the ingest p99 exceeds the bound or any
// request failed — the CI soak gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	wsd "repro"

	"repro/internal/benchsuite"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
)

func main() {
	addr := flag.String("addr", "", "base URL of an existing wsdserve worker or coordinator to drive (exclusive with -fleet)")
	fleet := flag.Int("fleet", 0, "start this many in-process workers plus a coordinator on loopback and drive the coordinator (exclusive with -addr)")
	rate := flag.Float64("rate", 50_000, "target sustained ingest rate in events/sec")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	batch := flag.Int("batch", 512, "events per ingest request")
	estimateEvery := flag.Int("estimate-every", 10, "interleave one GET /estimate per this many ingest batches (0 = no reads)")
	pat := flag.String("pattern", "triangle", "pattern the fleet counts (-fleet mode)")
	m := flag.Int("m", 9216, "fleet total reservoir budget, split across workers (-fleet mode)")
	shards := flag.Int("shards", 1, "shards per worker (-fleet mode)")
	win := flag.Int64("window", 0, "serve sliding-window estimates over the last N insertion events (-fleet mode; exclusive with -halflife)")
	halflife := flag.Float64("halflife", 0, "serve exponentially decayed estimates with this halflife (-fleet mode; exclusive with -window)")
	seed := flag.Int64("seed", 1, "seed for the synthetic stream and the fleet's samplers")
	vertices := flag.Int("vertices", 800, "vertex-set size of the synthetic churn stream")
	deleteFrac := flag.Float64("delete-frac", 0.2, "fraction of events that delete a present edge")
	workload := flag.String("workload", "wsdload/synthetic-churn", "workload name recorded in the report row")
	jsonOut := flag.Bool("json", false, "emit the run as a benchsuite-schema JSON report on stdout")
	maxP99 := flag.Float64("max-p99", 0, "fail (exit 1) if ingest p99 exceeds this many milliseconds or any request errored")
	flag.Parse()

	if (*addr == "") == (*fleet == 0) {
		fatal(fmt.Errorf("exactly one of -addr and -fleet is required"))
	}
	if *rate <= 0 || *batch <= 0 {
		fatal(fmt.Errorf("-rate and -batch must be positive"))
	}
	kind, err := cli.ParsePattern(*pat)
	if err != nil {
		fatal(err)
	}

	target := *addr
	if *fleet > 0 {
		var stop func()
		target, stop, err = startFleet(*fleet, kind, *m, *shards, *win, *halflife, *seed)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	target = cluster.NormalizeWorkerURL(target)

	res, err := run(target, runConfig{
		rate: *rate, duration: *duration, batch: *batch,
		estimateEvery: *estimateEvery, seed: *seed,
		vertices: *vertices, deleteFrac: *deleteFrac,
	})
	if err != nil {
		fatal(err)
	}
	res.Workload = *workload
	res.Pattern = kind.String()
	res.Stream = "synthetic-churn"
	res.Ingest = "wsdload"

	if *jsonOut {
		rep := &benchsuite.Report{
			SchemaVersion: benchsuite.SchemaVersion,
			Suite:         benchsuite.SuiteName,
			Seed:          *seed,
			Trials:        1,
			GoVersion:     runtime.Version(),
			GOOS:          runtime.GOOS,
			GOARCH:        runtime.GOARCH,
			CPUs:          runtime.NumCPU(),
			Results:       []benchsuite.Result{res},
		}
		out, err := rep.Encode()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	} else {
		fmt.Printf("wsdload: %s for %.1fs at target %.0f ev/s\n", target, res.DurationSecs, res.TargetEventsPerSec)
		fmt.Printf("  achieved   %.0f events/sec (%d events)\n", res.EventsPerSec, res.Events)
		fmt.Printf("  ingest     p50 %.2fms  p95 %.2fms  p99 %.2fms\n", res.IngestP50Ms, res.IngestP95Ms, res.IngestP99Ms)
		if res.EstimateP99Ms > 0 {
			fmt.Printf("  estimate   p50 %.2fms  p95 %.2fms  p99 %.2fms\n", res.EstimateP50Ms, res.EstimateP95Ms, res.EstimateP99Ms)
		}
		fmt.Printf("  errors     %d  degraded reads %d\n", res.Errors, res.DegradedReads)
	}

	if *maxP99 > 0 {
		if res.Errors > 0 {
			fatal(fmt.Errorf("%d request(s) failed during the run", res.Errors))
		}
		if res.IngestP99Ms > *maxP99 {
			fatal(fmt.Errorf("ingest p99 %.2fms exceeds the %.2fms bound", res.IngestP99Ms, *maxP99))
		}
	}
}

// startFleet boots n single-mode workers and a coordinator front end on
// loopback listeners and returns the coordinator's base URL plus a stop
// function. Budgets split like a sharded ensemble, seeds vary per worker, so
// the fleet is the in-process twin of an n-node broadcast deployment.
func startFleet(n int, kind wsd.Pattern, m, shards int, win int64, halflife float64, seed int64) (string, func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	urls := make([]string, n)
	budgets := shard.SplitBudget(m, n)
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{
			Pattern: kind, M: max(budgets[i], 1), Shards: shards,
			Options:  []wsd.Option{wsd.WithSeed(seed + int64(i)*101)},
			Window:   win,
			Halflife: halflife,
		})
		if err != nil {
			stop()
			return "", nil, err
		}
		url, closeSrv, err := listenAndServe(srv.Handler())
		if err != nil {
			stop()
			return "", nil, err
		}
		stops = append(stops, closeSrv, func() { srv.Close() })
		urls[i] = url
	}
	coord, err := serve.NewCoordinator(serve.CoordinatorConfig{Cluster: cluster.Config{Workers: urls}})
	if err != nil {
		stop()
		return "", nil, err
	}
	url, closeCoord, err := listenAndServe(coord.Handler())
	if err != nil {
		stop()
		return "", nil, err
	}
	stops = append(stops, closeCoord)
	return url, stop, nil
}

// listenAndServe serves handler on an ephemeral loopback port.
func listenAndServe(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// churn is the endless feasible synthetic stream: inserts of fresh random
// edges, deletions of currently present ones, at a fixed delete fraction.
type churn struct {
	rng     *rand.Rand
	n       int
	delFrac float64
	present map[graph.Edge]struct{}
	edges   []graph.Edge
	scratch []stream.Event
	body    []byte
}

func newChurn(seed int64, n int, delFrac float64) *churn {
	return &churn{
		rng: rand.New(rand.NewSource(seed)), n: n, delFrac: delFrac,
		present: make(map[graph.Edge]struct{}),
	}
}

// batch fills and returns the next k events, reusing internal buffers (the
// returned slice is valid until the next call).
func (c *churn) batch(k int) []stream.Event {
	c.scratch = c.scratch[:0]
	for len(c.scratch) < k {
		if len(c.edges) > 0 && c.rng.Float64() < c.delFrac {
			j := c.rng.Intn(len(c.edges))
			e := c.edges[j]
			c.edges[j] = c.edges[len(c.edges)-1]
			c.edges = c.edges[:len(c.edges)-1]
			delete(c.present, e)
			c.scratch = append(c.scratch, stream.Event{Op: stream.Delete, Edge: e})
			continue
		}
		e := graph.NewEdge(graph.VertexID(c.rng.Intn(c.n)), graph.VertexID(c.rng.Intn(c.n)))
		if e.IsLoop() {
			continue
		}
		if _, ok := c.present[e]; ok {
			continue
		}
		c.present[e] = struct{}{}
		c.edges = append(c.edges, e)
		c.scratch = append(c.scratch, stream.Event{Op: stream.Insert, Edge: e})
	}
	return c.scratch
}

// encode renders a batch as one binary wire body, reusing the buffer (the
// returned slice is valid until the next call).
func (c *churn) encode(evs []stream.Event) []byte {
	c.body = stream.AppendBinary(c.body[:0], evs)
	return c.body
}

type runConfig struct {
	rate          float64
	duration      time.Duration
	batch         int
	estimateEvery int
	seed          int64
	vertices      int
	deleteFrac    float64
}

// run executes the paced load against target and returns the measured row.
func run(target string, cfg runConfig) (benchsuite.Result, error) {
	src := newChurn(cfg.seed, cfg.vertices, cfg.deleteFrac)
	client := &http.Client{Timeout: 30 * time.Second}
	var (
		ingestLat   benchsuite.LatencyRecorder
		estimateLat benchsuite.LatencyRecorder
		events      int
		errors      int64
		degraded    int64
	)
	interval := time.Duration(float64(cfg.batch) / cfg.rate * float64(time.Second))
	start := time.Now()
	deadline := start.Add(cfg.duration)
	next := start
	batches := 0
	for time.Now().Before(deadline) {
		// Closed-loop pacing: wait for this batch's slot, but never queue
		// unbounded work — when the previous request overran its slot, send
		// immediately and let the schedule slip (the achieved rate column
		// reports the shortfall).
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		if behind := time.Since(next); behind > 0 {
			next = time.Now()
		}
		evs := src.batch(cfg.batch)
		t0 := time.Now()
		ok, err := postIngest(client, target, src.encode(evs))
		ingestLat.Observe(time.Since(t0))
		if err != nil || !ok {
			errors++
		} else {
			events += len(evs)
		}
		batches++
		if cfg.estimateEvery > 0 && batches%cfg.estimateEvery == 0 {
			t0 := time.Now()
			deg, err := getEstimate(client, target)
			estimateLat.Observe(time.Since(t0))
			if err != nil {
				errors++
			} else if deg {
				degraded++
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	res := benchsuite.Result{
		Events:             events,
		EventsPerSec:       float64(events) / elapsed,
		TargetEventsPerSec: cfg.rate,
		DurationSecs:       elapsed,
		IngestP50Ms:        ingestLat.Percentile(50),
		IngestP95Ms:        ingestLat.Percentile(95),
		IngestP99Ms:        ingestLat.Percentile(99),
		Errors:             errors,
		DegradedReads:      degraded,
	}
	if events > 0 {
		res.NsPerEvent = elapsed * 1e9 / float64(events)
	}
	if estimateLat.Count() > 0 {
		res.EstimateP50Ms = estimateLat.Percentile(50)
		res.EstimateP95Ms = estimateLat.Percentile(95)
		res.EstimateP99Ms = estimateLat.Percentile(99)
	}
	return res, nil
}

// postIngest sends one ingest body; false means the server rejected it.
func postIngest(client *http.Client, target string, body []byte) (bool, error) {
	resp, err := client.Post(target+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK, nil
}

// getEstimate reads /estimate and reports whether the reply was degraded
// (coordinator serving below its full fleet; always false on a worker).
func getEstimate(client *http.Client, target string) (bool, error) {
	resp, err := client.Get(target + "/estimate")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("GET /estimate: %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var reply struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return false, err
	}
	return reply.Degraded, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wsdload: %v\n", err)
	os.Exit(1)
}

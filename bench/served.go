package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/weights"
	"repro/internal/window"
	"repro/internal/xrand"
)

// fleetWorkers is the served workloads' worker count.
const fleetWorkers = 2

// referenceShare is the share of a served run's time spent in the
// fixed-rate reference step; the rest is the closed-loop capacity step.
const referenceShare = 0.7

// workerSeed is the pinned sampler seed of worker i.
func workerSeed(i int) int64 { return int64(i + 1) }

// runServed measures a served workload in three phases. Set-up (several
// times, see setupRepeats; setup_s is the median): start the fleet, wait for
// /healthz, ingest the pinned warm-up prefix, flush, and check the estimate
// against the exact oracle; heap_mb is the fleet's live heap at that fixed
// stream position. Reference step: ingest at the fixed rate ingestRate and
// reads at readRate, both open loop on one connection each, with latencies
// timed from each request's due time (see punctual). Capacity step: ingest
// closed loop, reads still at readRate; its event rate is throughput_eps.
func runServed(w workload, opt options) (*result, error) {
	sp := w.served
	in, err := sp.inputs()
	if err != nil {
		return nil, err
	}
	if err := checkPin(w.name, in.pin, opt.pin); err != nil {
		return nil, err
	}
	res := &result{correct: true, endToEnd: map[string]float64{}}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}

	var (
		setups, heaps []float64
		sess          *session
		warm          cluster.Estimate
	)
	for first := time.Now(); len(setups) < setupRepeats || time.Since(first) < opt.seconds/setupShare; {
		if sess != nil {
			sess.close()
		}
		base := liveHeapMB()
		start := time.Now()
		sess, warm, err = sp.setUp(&in, tr, opt.workDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		heaps = append(heaps, liveHeapMB()-base)
	}
	defer sess.close()
	res.endToEnd["setup_s"] = median(setups)
	res.endToEnd["heap_mb"] = median(heaps)
	oracle := float64(in.pin.Oracle)
	relErr := math.Abs(warm.Estimate-oracle) / oracle
	res.endToEnd["mre"] = relErr
	res.fixed = append(res.fixed, warm.Estimate)
	if !(relErr <= sp.maxErr) {
		res.correct = false
		res.note("CHECK FAILED: warm-up estimate %.6g vs oracle %.0f: relative error %.4g exceeds %.4g", warm.Estimate, oracle, relErr, sp.maxErr)
	}
	res.note("warm-up of %d events: estimate %.6g, oracle %.0f, workers %v", in.pin.Events, warm.Estimate, oracle, warm.WorkerEstimates)

	var replay *coreReplay
	if tr != nil {
		// The workers' counters run inside serve.New; the core layer is
		// measured by replaying the warm-up prefix through the same counter
		// configuration in process, which must reproduce each worker's
		// estimate bit for bit.
		replay, err = sp.replayCore(in.prefix)
		if err != nil {
			return nil, err
		}
		for i, est := range replay.estimates {
			if i >= len(warm.WorkerEstimates) || warm.WorkerEstimates[i] != est {
				res.correct = false
				res.note("CHECK FAILED: in-process replay of worker %d gives %v, the served worker %v", i, est, warm.WorkerEstimates)
			}
		}
	}

	m := sess.measure(sp, &in, opt, tr)
	res.attempted, res.failed = m.attempted.Load(), m.failed.Load()
	res.endToEnd["throughput_eps"] = m.capacityEvents / m.capacityWall.Seconds()
	res.endToEnd["ingest_p50_ms"] = m.ingest.percentile(50)
	res.endToEnd["estimate_p50_ms"] = m.reads.percentile(50)
	res.note("reference step %.1fs at %.0f ev/s and %.0f reads/s: %d ingest and %d read samples, %.1f%% of ingests queued behind the previous one, generator lateness p99 %.3f ms; capacity step %.1fs: %.0f events",
		m.refWall.Seconds(), sp.ingestRate, sp.readRate, m.ingest.count(), m.reads.count(),
		100*ratio(float64(m.queued), float64(m.ingest.count())), percentile(m.genLate, 99), m.capacityWall.Seconds(), m.capacityEvents)
	res.note("ingest p90 %.3f ms, p99 %.3f ms; estimate p90 %.3f ms, p99 %.3f ms (not metrics: see bench/README.md)",
		m.ingest.percentile(90), m.ingest.percentile(99), m.reads.percentile(90), m.reads.percentile(99))
	if m.badReplies > 0 {
		res.correct = false
		res.note("CHECK FAILED: %d estimate replies were not finite", m.badReplies)
	}
	if tr != nil {
		res.spans, res.dropped = tr.snapshot()
		var coverage float64
		res.layers, coverage = servedLayerMetrics(res.spans, m, replay, sess.fleet.rt)
		res.note("coordinator handler p50 + transport p50 = %.1f%% of client ingest p50", 100*coverage)
	}
	return res, nil
}

// fleet is the in-process deployment of a served workload: the workers and
// a coordinator, each behind its own loopback HTTP server.
type fleet struct {
	// goroutines is the process's goroutine count before the fleet started;
	// close waits until it is back.
	goroutines int
	url        string
	workers    []*serve.Server
	log        *wal.Log
	walDir     string
	servers    []*http.Server
	serving    sync.WaitGroup
	rt         *traceTransport // traced runs only
}

// startFleet boots the workers and the coordinator. Traced, every handler is
// wrapped in span middleware and the coordinator's worker client in a
// traceTransport over the same http.DefaultTransport an untraced coordinator
// uses.
func (sp *servedSpec) startFleet(tr *tracer, workDir string) (*fleet, error) {
	f := &fleet{goroutines: runtime.NumGoroutine()}
	var urls []string
	for i := range fleetWorkers {
		srv, err := serve.New(serve.Config{
			Pattern: wsd.TrianglePattern, M: sp.workerM, Shards: 1,
			Options: []wsd.Option{wsd.WithSeed(workerSeed(i))},
			Window:  sp.window,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.middleware("serve", i, h)
		}
		url, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	cfg := cluster.Config{Workers: urls}
	if sp.wal {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			f.close()
			return nil, err
		}
		f.walDir = dir
		if f.log, err = wal.Open(dir, wal.Options{}); err != nil {
			f.close()
			return nil, err
		}
		cfg.Log = f.log
	}
	if tr != nil {
		f.rt = &traceTransport{base: http.DefaultTransport, tr: tr, workers: map[string]int{}}
		for i, u := range urls {
			f.rt.workers[strings.TrimPrefix(u, "http://")] = i
		}
		cfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: f.rt}
	}
	coord, err := serve.NewCoordinator(serve.CoordinatorConfig{Cluster: cfg})
	if err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = coord.Handler()
	if tr != nil {
		h = tr.middleware("cluster", -1, h)
	}
	if f.url, err = f.listen(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// listen serves h on an ephemeral loopback port until close.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the HTTP servers and waits for them, drains the workers'
// counters, closes and removes the write-ahead log, and waits (up to 5s) for
// the connection goroutines to exit, so the next set-up's heap baseline no
// longer holds this fleet. The load generator has finished by then, so no
// request is in flight.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
	for _, w := range f.workers {
		w.Close()
	}
	if f.log != nil {
		f.log.Close()
	}
	if f.walDir != "" {
		os.RemoveAll(f.walDir)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > f.goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// client is one load-generator connection: an HTTP client limited to a
// single connection to the coordinator.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	seq  *atomic.Int64
}

func newClient(base string, tr *tracer, seq *atomic.Int64) *client {
	return &client{
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		base: base, tr: tr, seq: seq,
	}
}

// do sends one request and decodes a 200 reply's JSON body into out. Traced,
// it stamps the request ID header and records the client span.
func (c *client) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	id := c.seq.Add(1)
	if c.tr != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	start := c.tr.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.add(span{Name: "client." + endpoint(path), Layer: "http", Start: start, End: c.tr.now(), Req: id, Worker: -1})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// session is a running fleet with the load generator's two connections.
type session struct {
	fleet        *fleet
	ingest, read *client
	// next is the index of the next request body to send.
	next int
}

func (s *session) close() {
	s.ingest.close()
	s.read.close()
	s.fleet.close()
}

// ingestBody sends request body i of the stream and checks that the whole
// fleet applied all of it.
func (s *session) ingestBody(in *servedInput, i int) error {
	var reply cluster.IngestResult
	if err := s.ingest.do(http.MethodPost, "/ingest", in.body(i), &reply); err != nil {
		return err
	}
	if reply.Accepted != batchSize || reply.Applied != fleetWorkers {
		return fmt.Errorf("ingest of body %d: accepted %d events on %d workers, want %d on %d", i, reply.Accepted, reply.Applied, batchSize, fleetWorkers)
	}
	return nil
}

// setUp boots a fleet and brings it to the measured state: healthy, holding
// the warm-up prefix, with every worker caught up. It returns the estimate
// read at that point.
func (sp *servedSpec) setUp(in *servedInput, tr *tracer, workDir string) (*session, cluster.Estimate, error) {
	f, err := sp.startFleet(tr, workDir)
	if err != nil {
		return nil, cluster.Estimate{}, err
	}
	var seq atomic.Int64
	s := &session{fleet: f, ingest: newClient(f.url, tr, &seq), read: newClient(f.url, tr, &seq)}
	est, err := s.warmUp(in, sp.warmup)
	if err != nil {
		s.close()
		return nil, cluster.Estimate{}, err
	}
	return s, est, nil
}

func (s *session) warmUp(in *servedInput, events int) (cluster.Estimate, error) {
	var est cluster.Estimate
	deadline := time.Now().Add(10 * time.Second)
	for s.ingest.do(http.MethodGet, "/healthz", nil, nil) != nil {
		if time.Now().After(deadline) {
			return est, fmt.Errorf("fleet at %s not healthy after 10s", s.fleet.url)
		}
		time.Sleep(time.Millisecond)
	}
	for ; s.next < events/batchSize; s.next++ {
		if err := s.ingestBody(in, s.next); err != nil {
			return est, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := s.ingest.do(http.MethodPost, "/flush", nil, nil); err != nil {
		return est, fmt.Errorf("warm-up flush: %w", err)
	}
	if err := s.read.do(http.MethodGet, "/estimate", nil, &est); err != nil {
		return est, fmt.Errorf("warm-up read: %w", err)
	}
	if est.Gathered != fleetWorkers || est.Degraded || est.Processed != int64(events) {
		return est, fmt.Errorf("warm-up read: gathered %d of %d workers (degraded %v) at position %d, want %d", est.Gathered, fleetWorkers, est.Degraded, est.Processed, events)
	}
	return est, nil
}

// measurement is what the reference and capacity steps observed.
type measurement struct {
	// ingest and reads are the reference step's latencies in ms (see
	// punctual), windowed by due time.
	ingest, reads windowed
	queued        int // reference-step ingests that queued behind the previous one (see punctual)
	// genLate is, per reference-step ingest, how many ms after it was free
	// to send (at the due time, or when the previous reply arrived if that
	// was later) the generator sent it: its own timer and scheduling slack.
	genLate        []float64
	refWall        time.Duration
	refEvents      float64
	refBodyBytes   float64
	capacityEvents float64
	capacityWall   time.Duration

	attempted, failed atomic.Int64
	badReplies        int64
	lagSum            float64
	lagReads          int

	// Traced runs only.
	mallocs, allocBytes, gcFrac float64
	walBytesPerEvent, walFrames float64
}

// measure runs the reference step and then the capacity step.
func (s *session) measure(sp *servedSpec, in *servedInput, opt options, tr *tracer) *measurement {
	start := time.Now()
	refDuration := time.Duration(referenceShare * float64(opt.seconds))
	refEnd, end := start.Add(refDuration), start.Add(opt.seconds)
	m := &measurement{ingest: windowed{start: start}, reads: windowed{start: start}}

	// acked is the stream position the fleet has acknowledged, for the
	// reader's apply-lag measurement.
	var acked atomic.Int64
	acked.Store(int64(s.next * batchSize))
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		s.readLoop(sp, m, &acked, start, refEnd, end, rand.New(rand.NewSource(opt.seed*2+1)))
	}()

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	gcBefore := gcCPU()
	walBefore := s.walEnd()
	if tr != nil {
		tr.on.Store(true)
	}

	// Reference step: open loop at ingestRate with intervals jittered
	// uniformly in [0.5, 1.5) of the mean.
	rng := rand.New(rand.NewSource(opt.seed * 2))
	interval := float64(batchSize) / sp.ingestRate * float64(time.Second)
	due, prevDone := start, start
	sched := punctual{done: start}
	requests := 0
	for {
		due = due.Add(time.Duration(interval * (0.5 + rng.Float64())))
		if !due.Before(refEnd) {
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		m.genLate = append(m.genLate, ms(sent.Sub(later(due, prevDone))))
		body := in.body(s.next)
		err := s.ingestBody(in, s.next)
		prevDone = time.Now()
		lat, queued := sched.latency(due, sent, prevDone)
		if queued {
			m.queued++
		}
		m.ingest.add(due, lat)
		m.attempted.Add(1)
		requests++
		s.next++
		if err != nil {
			m.failed.Add(1)
			continue
		}
		m.refEvents += batchSize
		m.refBodyBytes += float64(len(body))
		acked.Add(batchSize)
	}
	time.Sleep(time.Until(refEnd))
	m.refWall = time.Since(start)
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.ReadMemStats(&memAfter)
	m.gcFrac = gcCPU().since(gcBefore)
	m.mallocs = float64(memAfter.Mallocs - memBefore.Mallocs)
	m.allocBytes = float64(memAfter.TotalAlloc - memBefore.TotalAlloc)
	m.walFrames = ratio(float64(s.walEnd()-walBefore), float64(requests))
	m.walBytesPerEvent = s.walBytesPerEvent()

	// Capacity step: closed loop, the next body as soon as the last is
	// acknowledged.
	capStart := time.Now()
	for time.Now().Before(end) {
		err := s.ingestBody(in, s.next)
		m.attempted.Add(1)
		s.next++
		if err != nil {
			m.failed.Add(1)
			continue
		}
		m.capacityEvents += batchSize
		acked.Add(batchSize)
	}
	m.capacityWall = time.Since(capStart)
	readers.Wait()
	return m
}

// punctual times the requests of one open-loop connection on the schedule
// a punctual generator would have kept. The generator sleeps until each
// request is due, and an idle Go runtime on Linux waits for timers in whole
// milliseconds, so it wakes up to a millisecond late; a request sent late
// would also delay the next one on the same connection. So request k
// starts, on the punctual schedule, at its due time or when request k-1
// completed there, whichever is later, and takes the service time measured
// for it (reply minus send). A stall of the system still delays every
// request queued behind it; the generator's own lateness, reported apart,
// does not.
type punctual struct{ done time.Time }

// latency returns the ms from due until the request completes on the
// punctual schedule, and whether it queued behind the previous request.
func (p *punctual) latency(due, sent, reply time.Time) (float64, bool) {
	queued := p.done.After(due)
	p.done = later(due, p.done).Add(reply.Sub(sent))
	return ms(p.done.Sub(due)), queued
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// readLoop issues /estimate reads open loop at readRate from start to end,
// recording the latencies (see punctual) of reads due before refEnd, and
// checks each reply: gathered from the whole fleet, not degraded, finite.
func (s *session) readLoop(sp *servedSpec, m *measurement, acked *atomic.Int64, start, refEnd, end time.Time, rng *rand.Rand) {
	interval := float64(time.Second) / sp.readRate
	due := start
	sched := punctual{done: start}
	for {
		due = due.Add(time.Duration(interval * (0.5 + rng.Float64())))
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		before := acked.Load()
		var est cluster.Estimate
		err := s.read.do(http.MethodGet, "/estimate", nil, &est)
		lat, _ := sched.latency(due, sent, time.Now())
		m.attempted.Add(1)
		switch {
		case err != nil || est.Degraded || est.Gathered != fleetWorkers:
			m.failed.Add(1)
		case math.IsNaN(est.Estimate) || math.IsInf(est.Estimate, 0):
			m.badReplies++
		}
		if due.Before(refEnd) {
			m.reads.add(due, lat)
			m.lagSum += float64(max(0, before-est.Processed))
			m.lagReads++
		}
	}
}

// walEnd returns the write-ahead log's newest frame position (0 without a
// log).
func (s *session) walEnd() uint64 {
	if s.fleet.log == nil {
		return 0
	}
	return s.fleet.log.End()
}

// walBytesPerEvent returns the write-ahead log's size on disk over the
// events it retains (0 without a log). Retention deletes sealed segments as
// soon as every worker has acknowledged them, so the growth of the
// directory over a step is not the bytes written; the retained segments'
// bytes per retained event are.
func (s *session) walBytesPerEvent() float64 {
	lg := s.fleet.log
	if lg == nil {
		return 0
	}
	var size int64
	filepath.WalkDir(s.fleet.walDir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil
	})
	return ratio(float64(size), float64(lg.Events()-lg.BaseEvents()))
}

// coreReplay is the in-process replay of the workers' counters over the
// warm-up prefix, the served workloads' measurement of the core layer.
type coreReplay struct {
	estimates []float64
	busy      int64
	events    int64
	occupancy []float64
	probes    []*weightProbe
}

// replayCore feeds the prefix, in batches of 512, through each worker's
// counter as serve.New builds it (wsd.NewShardedCounter with one shard: the
// full budget, seeded xrand.NewSequence(seed, 0), the heuristic weight
// without temporal features, the serving window), timed and probed.
func (sp *servedSpec) replayCore(prefix []stream.Event) (*coreReplay, error) {
	spec, err := window.New(sp.window, 0)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out := &coreReplay{}
	for i := range fleetWorkers {
		probe := &weightProbe{}
		c, err := core.New(core.Config{
			M: sp.workerM, Pattern: wsd.TrianglePattern, Weight: probe.wrap(weights.GPSDefault()),
			Rng: xrand.NewSequence(workerSeed(i), 0), SkipTemporal: true, Temporal: spec,
		})
		if err != nil {
			return nil, err
		}
		tc := &timedCounter{Counter: c, tr: tr, shard: i}
		for lo := 0; lo < len(prefix); lo += batchSize {
			tc.ProcessBatch(prefix[lo:min(lo+batchSize, len(prefix))])
		}
		out.estimates = append(out.estimates, c.Estimate())
		out.busy += tc.busy
		out.events += tc.events
		out.occupancy = append(out.occupancy, float64(c.SampleSize())/float64(sp.workerM))
		out.probes = append(out.probes, probe)
	}
	return out, nil
}

// servedLayerMetrics derives the per-layer metrics of a traced served run
// from the reference step's spans, the core replay and the run's counters.
// Latency shares divide a layer's p50 (or p99) by the client-observed
// ingest or estimate p50 (p99), timed from send. It also returns the
// coverage check: coordinator handler p50 plus transport p50 over client
// ingest p50.
func servedLayerMetrics(spans []span, m *measurement, rep *coreReplay, rt *traceTransport) (map[string]float64, float64) {
	linkParents(spans)
	self := selfTimes(spans)
	durs := map[string][]float64{}  // span name -> durations (ms)
	selfs := map[string][]float64{} // span name -> self times (ms)
	byID := make(map[int64]span, len(spans))
	busy := make([]float64, fleetWorkers)
	var transport, skew []float64
	rtByParent := map[int64][]span{}
	for i, s := range spans {
		byID[s.ID] = s
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[i])/1e6)
		if strings.HasPrefix(s.Name, "serve.") && s.Worker >= 0 && s.Worker < fleetWorkers {
			busy[s.Worker] += float64(s.dur())
		}
		if s.Name == "rt.ingest" && s.Parent != 0 {
			rtByParent[s.Parent] = append(rtByParent[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Name == "cluster.ingest" {
			if parent, ok := byID[s.Parent]; ok {
				transport = append(transport, float64(parent.dur()-s.dur())/1e6)
			}
			if rts := rtByParent[s.ID]; len(rts) == fleetWorkers {
				lo, hi := rts[0].dur(), rts[0].dur()
				for _, r := range rts[1:] {
					lo, hi = min(lo, r.dur()), max(hi, r.dur())
				}
				skew = append(skew, float64(hi-lo)/1e6)
			}
		}
	}
	clientIngest50, clientIngest99 := percentile(durs["client.ingest"], 50), percentile(durs["client.ingest"], 99)
	clientEstimate50 := percentile(durs["client.estimate"], 50)
	coverage := ratio(percentile(durs["cluster.ingest"], 50)+percentile(transport, 50), clientIngest50)

	maxBusy, sumBusy := 0.0, 0.0
	for _, b := range busy {
		maxBusy = max(maxBusy, b)
		sumBusy += b
	}
	nsPerEvent := ratio(float64(rep.busy), float64(rep.events)/fleetWorkers)
	wall := float64(m.refWall)
	out := map[string]float64{
		"core.ns_per_event":               nsPerEvent,
		"core.busy_share":                 ratio(nsPerEvent*m.refEvents, wall*fleetWorkers),
		"go.allocs_per_event":             ratio(m.mallocs, m.refEvents),
		"go.bytes_per_event":              ratio(m.allocBytes, m.refEvents),
		"go.gc_cpu_fraction":              m.gcFrac,
		"reservoir.occupancy":             mean(rep.occupancy),
		"shard.skew":                      ratio(maxBusy, sumBusy/fleetWorkers),
		"shard.apply_lag_events":          ratio(m.lagSum, float64(m.lagReads)),
		"stream.wire_bytes_per_event":     ratio(m.refBodyBytes, m.refEvents),
		"serve.ingest_share_p50":          ratio(percentile(durs["serve.ingest"], 50), clientIngest50),
		"serve.ingest_share_p99":          ratio(percentile(durs["serve.ingest"], 99), clientIngest99),
		"serve.estimate_share_p50":        ratio(percentile(durs["serve.estimate"], 50), clientEstimate50),
		"serve.busy_ratio":                ratio(maxBusy, wall),
		"cluster.ingest_self_share_p50":   ratio(percentile(selfs["cluster.ingest"], 50), clientIngest50),
		"cluster.ingest_self_share_p99":   ratio(percentile(selfs["cluster.ingest"], 99), clientIngest99),
		"cluster.estimate_self_share_p50": ratio(percentile(selfs["cluster.estimate"], 50), clientEstimate50),
		"cluster.fanout_skew_share_p99":   ratio(percentile(skew, 99), clientIngest99),
		"cluster.worker_errors":           float64(rt.errors.Load()),
		"wal.bytes_per_event":             m.walBytesPerEvent,
		"wal.frames_per_request":          m.walFrames,
		"http.transport_share_p50":        ratio(percentile(transport, 50), clientIngest50),
		"loadgen.queued_ratio":            ratio(float64(m.queued), float64(m.ingest.count())),
		"loadgen.late_ms_p99":             percentile(m.genLate, 99),
	}
	maps.Copy(out, probeMetrics(rep.probes, float64(rep.events)/fleetWorkers, float64(rep.busy)))
	return out, coverage
}

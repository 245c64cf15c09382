package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	wsd "repro"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/xrand"
)

// runBatch measures a batch workload. Set-up decodes the pinned stream from
// its wire encoding and the policy artifact and builds the counter, several
// times (see setupRepeats). Then the stream is replayed, each replay into a
// fresh counter fed by one producer in batches of 512: first the panel of
// replays under pinned estimator seeds, whose mean relative error is mre,
// then replays under seeds derived from --seed until the run's time is up. After
// every readEvery batches the producer reads an estimate that covers every
// event it submitted: Flush, which waits until the shards have applied
// their queues, then Estimate. The read's duration is an estimate sample;
// the time from the group's first SubmitBatch until the read returned, when
// the group's events show in the estimate, is an ingest sample.
func runBatch(w workload, opt options) (*result, error) {
	b := w.batch
	in, cached, err := b.cachedInputs(opt.cacheDir, w.name)
	if err != nil {
		return nil, err
	}
	if err := checkPin(w.name, in.pin, opt.pin); err != nil {
		return nil, err
	}
	if !cached && opt.cacheDir != "" {
		if err := storeInputs(opt.cacheDir, w.name, in); err != nil {
			return nil, err
		}
	}
	res := &result{correct: true, endToEnd: map[string]float64{}}

	var (
		setups []float64
		events stream.Stream
		pol    *wsd.Policy
	)
	for first := time.Now(); len(setups) < setupRepeats || time.Since(first) < opt.seconds/setupShare; {
		// Collect the previous set-up's stream first, so every set-up
		// allocates into the same heap state.
		runtime.GC()
		start := time.Now()
		events, pol, err = b.setUp(in.encoded)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if got := fingerprint(events); got != in.pin.Fingerprint || len(events) != in.pin.Events {
		return nil, fmt.Errorf("workload drift in %s: the decoded stream has %d events and fingerprint %s, its pin %d and %s", w.name, len(events), got, in.pin.Events, in.pin.Fingerprint)
	}
	res.endToEnd["setup_s"] = median(setups)

	var tr *tracer
	if opt.trace {
		tr = newTracer()
		tr.on.Store(true)
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	gcBefore := gcCPU()
	start := time.Now()
	deadline := start.Add(opt.seconds)
	r := &batchRun{spec: b, events: events, pol: pol, tr: tr, res: res, groups: windowed{start: start}, reads: windowed{start: start}}
	var last *shard.Ensemble
	for i := 0; ; i++ {
		seed := int64(i + 1)
		if i >= b.panel {
			seed = opt.seed<<20 + int64(i)
		}
		ens, est, err := r.replay(seed)
		if err != nil {
			return nil, err
		}
		if i < b.panel {
			res.fixed = append(res.fixed, est)
		}
		if i+1 >= b.panel && !time.Now().Before(deadline) {
			last = ens
			break
		}
		ens.Close()
	}
	runtime.ReadMemStats(&memAfter)
	gcFrac := gcCPU().since(gcBefore)
	alive := liveHeapMB()
	last.Close()
	res.endToEnd["heap_mb"] = alive - liveHeapMB()

	var relErr []float64
	for _, est := range res.fixed {
		relErr = append(relErr, math.Abs(est-float64(in.pin.Oracle))/float64(in.pin.Oracle))
	}
	mre := mean(relErr)
	if in.pin.Oracle <= 0 || !(mre <= b.maxErr) {
		res.correct = false
		res.note("CHECK FAILED: mre %.4g over %d pinned-seed replays exceeds %.4g (oracle %d)", mre, len(relErr), b.maxErr, in.pin.Oracle)
	}
	res.endToEnd["mre"] = mre
	res.endToEnd["throughput_eps"] = median(r.rates)
	res.endToEnd["ingest_p50_ms"] = r.groups.percentile(50)
	res.endToEnd["estimate_p50_ms"] = r.reads.percentile(50)
	res.note("%d replays of %d events (%d under pinned seeds), %d groups of %d events, each ending in a read; oracle %d", len(r.rates), len(events), b.panel, r.groups.count(), b.readEvery*batchSize, in.pin.Oracle)
	res.note("ingest p90 %.3f ms, estimate p90 %.3f ms (not metrics: see bench/README.md)", r.groups.percentile(90), r.reads.percentile(90))

	if tr != nil {
		tr.on.Store(false)
		res.spans, res.dropped = tr.snapshot()
		res.layers = r.layerMetrics(float64(memAfter.Mallocs-memBefore.Mallocs), float64(memAfter.TotalAlloc-memBefore.TotalAlloc), gcFrac)
		res.layers["stream.wire_bytes_per_event"] = float64(len(in.encoded)) / float64(len(events))
		// The busiest shard gates throughput: its core spans should account
		// for the replays' wall time.
		res.note("core spans of the busiest shard cover %.1f%% of the replays' wall time", 100*res.layers["shard.busy_ratio_max"])
	}
	return res, nil
}

// setUp is what a user of the library does before counting: decode the
// stream from its wire format, load the policy artifact, and build the
// counter (closed again here; every replay builds its own).
func (b *batchSpec) setUp(encoded []byte) (stream.Stream, *wsd.Policy, error) {
	events, err := stream.ReadBinary(bytes.NewReader(encoded))
	if err != nil {
		return nil, nil, err
	}
	var pol *wsd.Policy
	if b.policy != "" {
		art, err := policy.Decode(artifacts[b.policy])
		if err != nil {
			return nil, nil, err
		}
		pol = art.Policy
	}
	ens, _, _, err := b.build(1, pol, nil)
	if err != nil {
		return nil, nil, err
	}
	ens.Close()
	return events, pol, nil
}

// build returns a fresh counter for one replay. Untraced, it is exactly what
// a library user builds, wsd.NewShardedCounter. Traced, it is the same
// counters built the way NewShardedCounter builds them — split budget, shard
// i seeded by xrand.NewSequence(seed, i), one policy closure per shard —
// each wrapped in a timedCounter and a weightProbe. The harness self-test
// proves the two give bit-identical estimates.
func (b *batchSpec) build(seed int64, pol *wsd.Policy, tr *tracer) (*shard.Ensemble, []*timedCounter, []*weightProbe, error) {
	if tr == nil {
		opts := []wsd.Option{wsd.WithSeed(seed)}
		if pol != nil {
			opts = append(opts, wsd.WithPolicy(pol))
		}
		ens, err := wsd.NewShardedCounter(b.pattern, b.m, b.shards, opts...)
		return ens, nil, nil, err
	}
	budgets := shard.SplitBudget(b.m, b.shards)
	counters := make([]shard.Counter, b.shards)
	timed := make([]*timedCounter, b.shards)
	probes := make([]*weightProbe, b.shards)
	for i := range counters {
		w, params := weights.GPSDefault(), (*core.PolicyParams)(nil)
		if pol != nil {
			w, params = pol.Func(), policy.Params(pol)
		}
		probes[i] = &weightProbe{}
		c, err := core.New(core.Config{
			M:            budgets[i],
			Pattern:      b.pattern,
			Weight:       probes[i].wrap(w),
			Rng:          xrand.NewSequence(seed, int64(i)),
			SkipTemporal: pol == nil,
			Policy:       params,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		timed[i] = &timedCounter{Counter: c, tr: tr, shard: i}
		counters[i] = timed[i]
	}
	ens, err := shard.New(counters)
	return ens, timed, probes, err
}

// batchRun accumulates the samples of a batch workload's replays.
type batchRun struct {
	spec   *batchSpec
	events stream.Stream
	pol    *wsd.Policy
	tr     *tracer
	res    *result

	rates []float64 // events/s per replay
	// groups are the ms from a group's first SubmitBatch until its read
	// returned; reads are the ms of the read, a Flush and then an Estimate.
	groups, reads windowed
	wall          time.Duration
	submitWait    time.Duration
	lagSum        float64
	lagReads      int

	// Traced runs only, summed over replays.
	shardBusy []int64
	occupancy []float64
	probes    []*weightProbe
}

// replay feeds the whole stream into a fresh counter and returns it (still
// open, so the caller can measure its heap) with its final estimate.
func (r *batchRun) replay(seed int64) (*shard.Ensemble, float64, error) {
	// Start from a collected heap, so a collection the previous replay left
	// due is not charged to this one.
	runtime.GC()
	ens, timed, probes, err := r.spec.build(seed, r.pol, r.tr)
	if err != nil {
		return nil, 0, err
	}
	evs := r.events
	start := time.Now()
	group := start
	for lo, n := 0, 1; lo < len(evs); lo, n = lo+batchSize, n+1 {
		hi := min(lo+batchSize, len(evs))
		t0 := time.Now()
		if err := ens.SubmitBatch(evs[lo:hi]); err != nil {
			return nil, 0, err
		}
		r.submitWait += time.Since(t0)
		r.res.attempted++

		if n%r.spec.readEvery != 0 {
			continue
		}
		r.lagSum += float64(int64(hi) - ens.Processed())
		r.lagReads++
		read := time.Now()
		if err := ens.Flush(); err != nil {
			return nil, 0, err
		}
		est := ens.Estimate()
		done := time.Now()
		r.reads.add(read, ms(done.Sub(read)))
		r.groups.add(done, ms(done.Sub(group)))
		group = done
		r.res.attempted++
		if math.IsNaN(est) || math.IsInf(est, 0) {
			r.res.failed++
		}
	}
	if err := ens.Flush(); err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	r.wall += elapsed
	r.rates = append(r.rates, float64(len(evs))/elapsed.Seconds())
	est := ens.Estimate()
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return nil, 0, fmt.Errorf("replay under seed %d: estimate %v is not finite", seed, est)
	}
	if timed != nil {
		if r.shardBusy == nil {
			r.shardBusy = make([]int64, len(timed))
		}
		// Inside the barrier every shard goroutine is parked, so its
		// counters are safe to read.
		err := ens.Quiesce(func(i int, _ shard.Counter) error {
			r.shardBusy[i] += timed[i].busy
			r.occupancy = append(r.occupancy, float64(timed[i].SampleSize())/float64(timed[i].Reservoir().Cap()))
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		r.probes = append(r.probes, probes...)
	}
	return ens, est, nil
}

// layerMetrics derives the per-layer metrics of a traced batch run from its
// counters. core.ns_per_event and weights.calls_per_event count every
// shard's work per stream event.
func (r *batchRun) layerMetrics(mallocs, allocBytes, gcFrac float64) map[string]float64 {
	var busy, maxBusy int64
	for _, b := range r.shardBusy {
		busy += b
		maxBusy = max(maxBusy, b)
	}
	events := float64(len(r.rates) * len(r.events))
	shards := float64(len(r.shardBusy))
	m := map[string]float64{
		"core.ns_per_event":       ratio(float64(busy), events),
		"core.busy_share":         ratio(float64(busy), float64(r.wall)*shards),
		"go.allocs_per_event":     mallocs / events,
		"go.bytes_per_event":      allocBytes / events,
		"go.gc_cpu_fraction":      gcFrac,
		"reservoir.occupancy":     mean(r.occupancy),
		"shard.busy_ratio_max":    ratio(float64(maxBusy), float64(r.wall)),
		"shard.skew":              ratio(float64(maxBusy), float64(busy)/shards),
		"shard.submit_wait_ratio": ratio(float64(r.submitWait), float64(r.wall)),
		"shard.apply_lag_events":  ratio(r.lagSum, float64(r.lagReads)),
	}
	maps.Copy(m, probeMetrics(r.probes, events, float64(busy)))
	return m
}

// liveHeapMB returns the live heap in MB after a full collection. The
// difference of two readings, one with the system under test alive and one
// without, is the system's heap: the benchmark's own inputs are live in both.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// cpuSample is a reading of the runtime's cumulative GC and total CPU time.
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since returns the share of CPU time spent in GC between before and s.
func (s cpuSample) since(before cpuSample) float64 {
	return ratio(s.gc-before.gc, s.total-before.total)
}

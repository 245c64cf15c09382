// Package benchsuite is the repository's performance regression subsystem: a
// fixed set of named, seeded ingest workloads measured end to end —
// events/sec, ns/event, allocs/event, bytes/event, and the mean relative
// error against the exact count — emitted as a schema-versioned,
// machine-readable JSON report that a comparator can diff against a committed
// baseline and fail CI on regression.
//
// The suite crosses three stream shapes with a ladder of ingest paths, one
// cell per "<ingest>/<stream>" pair; ingests documents every path:
//
//	streams: dense-community (4-clique counting on planted communities, the
//	         quadratic-enumeration regime), wedge-heavy (hub-dominated
//	         Barabasi-Albert graph, cheap pattern at high instance counts),
//	         deletion-churn (mass-deletion events, the fully dynamic stress)
//	ingest:  the bare counter (core, and its core-temporal, core-window,
//	         core-decay, core-wsdl, multi3 and single3x variants), one
//	         worker goroutine fed per event (submit), in batches (pipeline)
//	         or from decoded wire frames (binary-decode), split-budget
//	         ensembles (shard2, shard4, shard8), and a 3-worker HTTP fleet
//	         (cluster3, and its cluster3-wsdl, cluster3-partitioned and
//	         cluster3-wal variants); all but core, pipeline, shard4 and
//	         binary-decode run on dense-community only
//
// Everything is seeded: the streams, the samplers, and the trial protocol,
// so two runs on the same machine measure the same computation and the only
// noise is the clock. Run `wsdbench -exp suite -json > BENCH_$(date +%F).json`
// to record a report and `wsdbench -compare old.json new.json` to gate on it.
package benchsuite

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	wsd "repro"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/weights"
	"repro/internal/window"
	"repro/internal/xrand"
)

// Config parameterizes a suite run.
type Config struct {
	// Seed anchors every stream and sampler. The default 0 means 1.
	Seed int64
	// Trials is the number of measured repetitions averaged per workload
	// (default 3). Estimator seeds vary per trial; streams are fixed.
	Trials int
	// Only, when non-empty, restricts the run to workloads whose name
	// contains any of the given substrings.
	Only []string
}

// batchSize is the submit granularity of every batched ingest path, matching
// the binary codec's natural frame-to-batch mapping at wire defaults.
const batchSize = 512

// temporalBenchWindow and temporalBenchHalflife parameterize the temporal
// cells: roughly half the dense-community stream's insertions, so the window
// is genuinely expiring (the steady-state cost) while still holding enough
// edges for a stable 4-clique count.
const (
	temporalBenchWindow   = 6000
	temporalBenchHalflife = 3000.0
	// temporalBenchM under-provisions the window cell on purpose: the
	// dense-community budget (9216) exceeds the live-edge count of a
	// 6000-event window, which would make the windowed counter exact and the
	// cell's MRE column vacuous. A 4096-edge reservoir keeps eviction
	// pressure on while the window expires — both temporal code paths in one
	// cell.
	temporalBenchM = 4096
)

// streamSpec is one benchmark stream: a generator, the pattern counted on
// it, and the reservoir budget.
type streamSpec struct {
	name  string
	kind  pattern.Kind
	m     int
	build func(seed int64) stream.Stream
}

// streams returns the suite's stream shapes. Sizes are chosen so the whole
// suite runs in tens of seconds while each cell still processes enough
// events for stable per-event figures.
func streams() []streamSpec {
	return []streamSpec{
		{
			// The regime the sharded refactor targets: 4-clique completion
			// search is quadratic in the sampled neighborhood, and the
			// planted communities keep neighborhoods dense.
			name: "dense-community", kind: pattern.FourClique, m: 9216,
			build: func(seed int64) stream.Stream {
				rng := rand.New(rand.NewSource(seed))
				edges := gen.PlantedPartition(12, 50, 0.9, 0.002, rng)
				return stream.LightDeletion(edges, 0.1, rng)
			},
		},
		{
			// Hub-dominated graph: wedge counting is linear per event but
			// instance counts explode at the hubs, stressing the estimator
			// accumulation rather than the enumeration.
			name: "wedge-heavy", kind: pattern.Wedge, m: 4096,
			build: func(seed int64) stream.Stream {
				rng := rand.New(rand.NewSource(seed))
				edges := gen.BarabasiAlbert(3000, 8, rng)
				return stream.LightDeletion(edges, 0.05, rng)
			},
		},
		{
			// Mass-deletion churn: triangles over an Erdos-Renyi graph with
			// six mass-deletion events, exercising the deletion estimator
			// and the reservoir's removal path.
			name: "deletion-churn", kind: pattern.Triangle, m: 4096,
			build: func(seed int64) stream.Stream {
				rng := rand.New(rand.NewSource(seed))
				edges := gen.ErdosRenyi(2000, 24000, rng)
				return stream.MassiveDeletionEvents(edges, 6, 0.5, 0.25, rng)
			},
		},
	}
}

// ingestSpec is one ingest path: a function that builds the counting stack,
// feeds it the whole stream in batches, and returns the final estimate.
type ingestSpec struct {
	name string
	// streams, when non-empty, restricts the path to the named stream shapes
	// (the multi-pattern cells only make sense where several patterns have
	// instances worth counting).
	streams []string
	// truth, when set, overrides the whole-stream exact count as the cell's
	// MRE reference — the temporal cells estimate a different quantity
	// (windowed or decayed count), so their error must be measured against
	// the matching oracle.
	truth func(sp streamSpec, s stream.Stream) float64
	run   cellFunc
}

// cellFunc runs one trial of an ingest path on stream s (encoded is s in the
// binary wire format) under the trial's seed and returns the final estimate.
type cellFunc func(sp streamSpec, s stream.Stream, encoded []byte, seed int64) (float64, error)

// appliesTo reports whether the ingest path runs on stream sp.
func (ing ingestSpec) appliesTo(sp streamSpec) bool {
	if len(ing.streams) == 0 {
		return true
	}
	for _, name := range ing.streams {
		if name == sp.name {
			return true
		}
	}
	return false
}

// multiPatterns is the 3-pattern set of the multi-pattern cells: the stream's
// own pattern stays primary so the sampling trajectory — and therefore the
// MRE column — matches the single-pattern core cell exactly; what the cell
// measures is the marginal cost of answering two more pattern queries from
// the same sample.
func multiPatterns(sp streamSpec) []pattern.Kind {
	kinds := []pattern.Kind{sp.kind}
	for _, k := range []pattern.Kind{pattern.FourClique, pattern.Triangle, pattern.Wedge} {
		if k != sp.kind {
			kinds = append(kinds, k)
		}
	}
	return kinds[:3]
}

// newCoreCounter builds the suite's WSD-H counter. skipTemporal turns off
// the per-event temporal features; the WSD-H weight never reads them, so the
// sample, and with it the estimate, is the same either way.
func newCoreCounter(sp streamSpec, m int, seed int64, skipTemporal bool) (*core.Counter, error) {
	return core.New(core.Config{
		M:            m,
		Pattern:      sp.kind,
		Weight:       weights.GPSDefault(),
		Rng:          xrand.New(seed),
		SkipTemporal: skipTemporal,
	})
}

// newPipeline is the submit, pipeline and binary-decode cells' ingest stack:
// the core cell's counter owned by one worker goroutine, a one-shard
// ensemble with a 64-envelope feed.
func newPipeline(sp streamSpec, seed int64) (*shard.Ensemble, error) {
	c, err := newCoreCounter(sp, sp.m, seed, true)
	if err != nil {
		return nil, err
	}
	return shard.New([]shard.Counter{c}, shard.WithBuffer(64))
}

// feedCore feeds the stream to a bare counter in batches and returns its
// final estimate.
func feedCore(c *core.Counter, s stream.Stream) float64 {
	for lo := 0; lo < len(s); lo += batchSize {
		c.ProcessBatch(s[lo:min(lo+batchSize, len(s))])
	}
	return c.Estimate()
}

// runCore is the bare-counter cell body: newCoreCounter fed the stream in
// batches.
func runCore(skipTemporal bool) cellFunc {
	return func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
		c, err := newCoreCounter(sp, sp.m, seed, skipTemporal)
		if err != nil {
			return 0, err
		}
		return feedCore(c, s), nil
	}
}

// feedPooled copies the stream into pooled batches and hands each to submit,
// which takes the batch's reference.
func feedPooled(s stream.Stream, submit func(*stream.Batch) error) error {
	var pool stream.BatchPool
	for lo := 0; lo < len(s); lo += batchSize {
		b := pool.Get()
		b.Events = append(b.Events, s[lo:min(lo+batchSize, len(s))]...)
		if err := submit(b); err != nil {
			return err
		}
	}
	return nil
}

// runShards is the shardK cell body: k split-budget shards, shard i seeded
// seed+i, fed by the refcounted broadcast.
func runShards(k int) cellFunc {
	return func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
		budgets := shard.SplitBudget(sp.m, k)
		counters := make([]shard.Counter, k)
		for i := range counters {
			c, err := newCoreCounter(sp, budgets[i], seed+int64(i), true)
			if err != nil {
				return 0, err
			}
			counters[i] = c
		}
		e, err := shard.New(counters)
		if err != nil {
			return 0, err
		}
		if err := feedPooled(s, e.SubmitPooled); err != nil {
			return 0, err
		}
		return e.Close(), nil
	}
}

// fleet is what sets one cluster cell apart from the others; runFleet builds
// and drives every one of them.
type fleet struct {
	// budgetDiv divides the stream's budget m before it is split across the
	// three workers.
	budgetDiv int
	// policy boots every worker under the reference WSD-L artifact.
	policy bool
	// partitioned routes each edge to the workers owning its endpoints, and
	// gives worker i partition slot i.
	partitioned bool
	// wal logs every batch to a write-ahead log before the fan-out.
	wal bool
}

// runFleet is the cluster cells' body: three single-shard serve workers
// (worker i seeded seed+i) behind httptest servers, a coordinator over them
// fed pooled batches, then Flush — which drains every worker, so the gathered
// estimate reflects the whole stream without Snapshot's state serialization,
// which is not what the cells price — and Estimate.
func runFleet(f fleet) cellFunc {
	return func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
		var closers []func()
		defer func() {
			for _, c := range closers {
				c()
			}
		}()
		var art *policy.Artifact
		if f.policy {
			var err error
			if art, err = policy.New(sp.kind, policy.Reference(sp.kind), policy.Provenance{}); err != nil {
				return 0, err
			}
		}
		budgets := shard.SplitBudget(sp.m/f.budgetDiv, 3)
		cfg := cluster.Config{Workers: make([]string, len(budgets)), Partitioned: f.partitioned}
		for i := range budgets {
			wc := serve.Config{
				Pattern: sp.kind,
				M:       budgets[i],
				Shards:  1,
				Options: []wsd.Option{wsd.WithSeed(seed + int64(i))},
				Policy:  art,
			}
			if f.partitioned {
				wc.PartitionIndex, wc.PartitionCount = i, len(budgets)
			}
			srv, err := serve.New(wc)
			if err != nil {
				return 0, err
			}
			ts := httptest.NewServer(srv.Handler())
			closers = append(closers, ts.Close, func() { srv.Close() })
			cfg.Workers[i] = ts.URL
		}
		if f.wal {
			dir, err := os.MkdirTemp("", "wsdbench-wal-*")
			if err != nil {
				return 0, err
			}
			log, err := wal.Open(dir, wal.Options{})
			if err != nil {
				os.RemoveAll(dir)
				return 0, err
			}
			closers = append(closers, func() { log.Close() }, func() { os.RemoveAll(dir) })
			cfg.Log = log
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return 0, err
		}
		if err := feedPooled(s, coord.SubmitPooled); err != nil {
			return 0, err
		}
		if err := coord.Flush(); err != nil {
			return 0, err
		}
		est, err := coord.Estimate()
		if err != nil {
			return 0, err
		}
		return est.Estimate, nil
	}
}

func ingests() []ingestSpec {
	return []ingestSpec{
		{
			// The bare single-threaded counter: the floor every layered path
			// is measured against.
			name: "core",
			run:  runCore(true),
		},
		{
			// The core cell with the temporal features computed (state
			// extraction) under the same WSD-H weight, which ignores them:
			// its sample and MRE equal core's, so core-temporal - core is
			// what the features cost.
			name:    "core-temporal",
			streams: []string{"dense-community"},
			run:     runCore(false),
		},
		{
			// The bare counter under a learned WSD-L policy: the weight
			// function is a linear model over the per-event MDP state instead
			// of the closed-form heuristic, and temporal features are on (the
			// policy consumes them), so the cell prices exactly what a policy
			// hot-swap adds to the hot path — state extraction plus a dot
			// product per insertion, which must stay allocation-free. The
			// reference policy is a fixed deterministic parameter set
			// (training at bench time would swamp the measurement).
			name:    "core-wsdl",
			streams: []string{"dense-community"},
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				ref := policy.Reference(sp.kind)
				c, err := core.New(core.Config{
					M:       sp.m,
					Pattern: sp.kind,
					Weight:  ref.Func(),
					Rng:     xrand.New(seed),
					Policy:  policy.Params(ref),
				})
				if err != nil {
					return 0, err
				}
				return feedCore(c, s), nil
			},
		},
		{
			// One worker goroutine behind a channel (a one-shard
			// ensemble), batched submits.
			name: "pipeline",
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				p, err := newPipeline(sp, seed)
				if err != nil {
					return 0, err
				}
				for lo := 0; lo < len(s); lo += batchSize {
					if err := p.SubmitBatch(s[lo:min(lo+batchSize, len(s))]); err != nil {
						return 0, err
					}
				}
				return p.Close(), nil
			},
		},
		{
			// The pipeline cell fed one event per Submit, each in its own
			// envelope: the same counter and seed, so its MRE equals
			// pipeline's, and submit - pipeline is what batching saves.
			name:    "submit",
			streams: []string{"dense-community"},
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				p, err := newPipeline(sp, seed)
				if err != nil {
					return 0, err
				}
				for _, ev := range s {
					if err := p.Submit(ev); err != nil {
						return 0, err
					}
				}
				return p.Close(), nil
			},
		},
		{name: "shard2", streams: []string{"dense-community"}, run: runShards(2)},
		{name: "shard4", run: runShards(4)},
		{name: "shard8", streams: []string{"dense-community"}, run: runShards(8)},
		{
			// One multi-pattern counter answering three pattern queries from
			// one shared sample: the "one stream, many questions" operating
			// point. The acceptance bar is < 2x the single-pattern core cell
			// on the same stream (vs ~3x for three separate counters, the
			// single3x cell below).
			name:    "multi3",
			streams: []string{"dense-community"},
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				patterns := multiPatterns(sp)
				c, err := core.New(core.Config{
					M:            sp.m,
					Pattern:      patterns[0],
					Secondary:    patterns[1:],
					Weight:       weights.GPSDefault(),
					Rng:          xrand.New(seed),
					SkipTemporal: true,
				})
				if err != nil {
					return 0, err
				}
				return feedCore(c, s), nil
			},
		},
		{
			// The same three pattern queries served the pre-multi way: three
			// independent counters each ingesting (and sampling) the whole
			// stream. The cost this row pays and multi3 does not is the
			// baseline the tentpole is measured against.
			name:    "single3x",
			streams: []string{"dense-community"},
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				counters := make([]*core.Counter, 0, 3)
				for _, k := range multiPatterns(sp) {
					spk := sp
					spk.kind = k
					c, err := newCoreCounter(spk, sp.m, seed, true)
					if err != nil {
						return 0, err
					}
					counters = append(counters, c)
				}
				for lo := 0; lo < len(s); lo += batchSize {
					batch := s[lo:min(lo+batchSize, len(s))]
					for _, c := range counters {
						c.ProcessBatch(batch)
					}
				}
				// counters[0] counts the stream's own pattern: the MRE column
				// stays comparable with the core and multi3 cells.
				return counters[0].Estimate(), nil
			},
		},
		{
			// The cluster layer end to end: a coordinator broadcasting pooled
			// batches (re-encoded once into the wire format) over HTTP to
			// three in-process single-shard workers at equal total budget,
			// then gathering and combining their estimates. The cell gates
			// the scatter/gather path's ingest throughput like every other
			// cell — HTTP loopback included, since that is what a real
			// deployment pays.
			name:    "cluster3",
			streams: []string{"dense-community"},
			run:     runFleet(fleet{budgetDiv: 1}),
		},
		{
			// cluster3 with every worker booted under the reference WSD-L
			// policy artifact (serve.Config.Policy — the wsdserve -policy
			// path): what the fleet pays to run a learned weight function end
			// to end, HTTP loopback and per-event policy evaluation included.
			name:    "cluster3-wsdl",
			streams: []string{"dense-community"},
			run:     runFleet(fleet{budgetDiv: 1, policy: true}),
		},
		{
			// The partitioned cluster layer: the coordinator routes each edge
			// to the workers owning its endpoints instead of broadcasting,
			// and the estimates compose by visibility-corrected summation.
			// Each worker receives ~5/9 of the deliveries a broadcast would
			// send it AND samples only its own disjoint substream, so the
			// fleet holds broadcast-class accuracy on a fraction of the
			// reservoir — the cell runs at a third of the cluster3 fleet
			// budget and gates the resulting ingest speedup (the mode's
			// reason to exist).
			name:    "cluster3-partitioned",
			streams: []string{"dense-community"},
			run:     runFleet(fleet{budgetDiv: 3, partitioned: true}),
		},
		{
			// cluster3 with the write-ahead log on the broadcast path: every
			// batch is canonicalized, appended (CRC'd, one write) and only
			// then fanned out. The WAL adds durability, not sampling, so the
			// MRE equals cluster3's and the ns/event difference is the
			// durability tax.
			name:    "cluster3-wal",
			streams: []string{"dense-community"},
			run:     runFleet(fleet{budgetDiv: 1, wal: true}),
		},
		{
			// The windowed hot path: the bare counter in sliding-window mode.
			// Relative to the core cell every insertion adds a ring push, a
			// duplicate probe, and (once the stream outgrows the window) one
			// expiry replayed through the deletion path — the cell gates that
			// tax on ns/event and allocs/event, and its MRE is measured
			// against the windowed exact oracle.
			name:    "core-window",
			streams: []string{"dense-community"},
			truth: func(sp streamSpec, s stream.Stream) float64 {
				wc := exact.NewWindow(temporalBenchWindow, sp.kind)
				for _, ev := range s {
					wc.Apply(ev)
				}
				return float64(wc.Count(sp.kind))
			},
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				c, err := core.New(core.Config{
					M:            temporalBenchM,
					Pattern:      sp.kind,
					Weight:       weights.GPSDefault(),
					Rng:          xrand.New(seed),
					SkipTemporal: true,
					Temporal:     window.Spec{Window: temporalBenchWindow},
				})
				if err != nil {
					return 0, err
				}
				return feedCore(c, s), nil
			},
		},
		{
			// The decayed hot path: the bare counter in exponential-decay
			// mode — one multiply on the estimate and one on the weight scale
			// per surviving insertion, plus the rare renormalization sweep.
			// MRE is measured against the decayed exact oracle.
			name:    "core-decay",
			streams: []string{"dense-community"},
			truth: func(sp streamSpec, s stream.Stream) float64 {
				dc := exact.NewDecay(temporalBenchHalflife, sp.kind)
				for _, ev := range s {
					dc.Apply(ev)
				}
				return dc.Value(sp.kind)
			},
			run: func(sp streamSpec, s stream.Stream, _ []byte, seed int64) (float64, error) {
				c, err := core.New(core.Config{
					M:            sp.m,
					Pattern:      sp.kind,
					Weight:       weights.GPSDefault(),
					Rng:          xrand.New(seed),
					SkipTemporal: true,
					Temporal:     window.Spec{Halflife: temporalBenchHalflife},
				})
				if err != nil {
					return 0, err
				}
				return feedCore(c, s), nil
			},
		},
		{
			// The wire path: binary frames decoded into pooled batches
			// feeding the pipeline cell's worker — what a socket ingester
			// pays end to end.
			name: "binary-decode",
			run: func(sp streamSpec, s stream.Stream, encoded []byte, seed int64) (float64, error) {
				p, err := newPipeline(sp, seed)
				if err != nil {
					return 0, err
				}
				var pool stream.BatchPool
				err = stream.EachFrame(encoded, func(payload []byte) (err error) {
					b := pool.Get()
					if b.Events, err = stream.DecodeFramePayload(b.Events, payload); err != nil {
						b.Release()
						return err
					}
					return p.SubmitPooled(b)
				})
				if err != nil {
					return 0, err
				}
				return p.Close(), nil
			},
		},
	}
}

// Run executes the suite and returns the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Trials < 1 {
		cfg.Trials = 3
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Suite:         SuiteName,
		Seed:          cfg.Seed,
		Trials:        cfg.Trials,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
	}
	for _, sp := range streams() {
		s := sp.build(cfg.Seed)
		if len(s) == 0 {
			return nil, fmt.Errorf("benchsuite: stream %s is empty", sp.name)
		}
		truth := exactCount(s, sp.kind)
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, s); err != nil {
			return nil, fmt.Errorf("benchsuite: encode %s: %w", sp.name, err)
		}
		encoded := buf.Bytes()
		for _, ing := range ingests() {
			name := ing.name + "/" + sp.name
			if !ing.appliesTo(sp) || !selected(name, cfg.Only) {
				continue
			}
			cellTruth := truth
			if ing.truth != nil {
				cellTruth = ing.truth(sp, s)
			}
			res, err := measure(name, sp, ing, s, encoded, cellTruth, cfg)
			if err != nil {
				return nil, fmt.Errorf("benchsuite: %s: %w", name, err)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("benchsuite: no workload matches %v", cfg.Only)
	}
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Workload < rep.Results[j].Workload })
	return rep, nil
}

// measure runs one workload cell: Trials timed repetitions with fresh,
// per-trial-seeded counters over the fixed stream.
func measure(name string, sp streamSpec, ing ingestSpec, s stream.Stream, encoded []byte, truth float64, cfg Config) (Result, error) {
	var (
		secs   float64
		allocs uint64
		bytes  uint64
		mre    float64
	)
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(trial)*1_000_003
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		est, err := ing.run(sp, s, encoded, seed)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Result{}, err
		}
		secs += elapsed.Seconds()
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		mre += metrics.RelErr(est, truth)
	}
	total := float64(len(s)) * float64(cfg.Trials)
	return Result{
		Workload:       name,
		Stream:         sp.name,
		Ingest:         ing.name,
		Pattern:        sp.kind.String(),
		Events:         len(s),
		EventsPerSec:   total / secs,
		NsPerEvent:     secs * 1e9 / total,
		AllocsPerEvent: float64(allocs) / total,
		BytesPerEvent:  float64(bytes) / total,
		MREVsExact:     mre / float64(cfg.Trials),
		Exact:          truth,
	}, nil
}

var exactCache = map[string]float64{}

// exactCount replays the stream through the exact counter; cached per
// (stream content is determined by suite seed + name, so the key is the
// first/last events and length — cheap and collision-safe within a process).
func exactCount(s stream.Stream, k pattern.Kind) float64 {
	key := fmt.Sprintf("%v/%d/%v/%v", k, len(s), s[0], s[len(s)-1])
	if v, ok := exactCache[key]; ok {
		return v
	}
	ex := exact.New(k)
	for _, ev := range s {
		ex.Apply(ev)
	}
	v := float64(ex.Count(k))
	exactCache[key] = v
	return v
}

func selected(name string, only []string) bool {
	if len(only) == 0 {
		return true
	}
	for _, o := range only {
		if o != "" && strings.Contains(name, o) {
			return true
		}
	}
	return false
}

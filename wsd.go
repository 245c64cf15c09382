// Package wsd is a Go implementation of "Reinforcement Learning Enhanced
// Weighted Sampling for Accurate Subgraph Counting on Fully Dynamic Graph
// Streams" (ICDE 2023): the WSD weighted sampling framework with its unbiased
// subgraph-count estimator, the GPS/GPS-A priority-sampling family, the
// uniform-sampling baselines (TRIEST-FD, ThinkD, WRS), and a pure-Go DDPG
// learner for the data-driven weight function (WSD-L).
//
// This root package is the supported facade: it re-exports the types a
// downstream user needs and provides convenience constructors. Power users
// can reach the subsystems directly under internal/ when vendoring the
// module.
//
// # Quick start
//
//	counter, err := wsd.NewTriangleCounter(10_000, wsd.WithSeed(42))
//	if err != nil { ... }
//	counter.Process(wsd.Insert(1, 2))
//	counter.Process(wsd.Insert(2, 3))
//	counter.Process(wsd.Insert(1, 3))
//	fmt.Println(counter.Estimate()) // 1
//
// See examples/ for runnable programs and cmd/ for the reproduction CLIs.
package wsd

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/pattern"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/weights"
	"repro/internal/window"
	"repro/internal/xrand"
)

// Re-exported fundamental types.
type (
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Edge is a normalized undirected edge; build with NewEdge.
	Edge = graph.Edge
	// Event is one stream event (op, edge).
	Event = stream.Event
	// Stream is a sequence of events.
	Stream = stream.Stream
	// Pattern identifies a subgraph pattern (WedgePattern, TrianglePattern,
	// FourCliquePattern).
	Pattern = pattern.Kind
	// WeightFunc maps the MDP state of an arriving edge to its sampling
	// weight.
	WeightFunc = weights.Func
	// State is the MDP state handed to weight functions.
	State = weights.State
	// Policy is a trained WSD-L weight policy.
	Policy = rl.Policy
)

// Supported subgraph patterns.
const (
	// WedgePattern is the length-2 path.
	WedgePattern = pattern.Wedge
	// TrianglePattern is the 3-clique.
	TrianglePattern = pattern.Triangle
	// FourCliquePattern is the 4-clique.
	FourCliquePattern = pattern.FourClique
)

// NewEdge returns the normalized undirected edge {u, v}.
func NewEdge(u, v VertexID) Edge { return graph.NewEdge(u, v) }

// Insert returns the insertion event (+, {u, v}).
func Insert(u, v VertexID) Event {
	return Event{Op: stream.Insert, Edge: graph.NewEdge(u, v)}
}

// Delete returns the deletion event (-, {u, v}).
func Delete(u, v VertexID) Event {
	return Event{Op: stream.Delete, Edge: graph.NewEdge(u, v)}
}

// Counter is the single-pass estimator surface shared by WSD and the
// baselines: feed events, read the unbiased running estimate.
type Counter interface {
	Process(ev Event)
	Estimate() float64
	Name() string
}

// options collects the functional options for the counter constructors.
type options struct {
	seed   int64
	weight WeightFunc
	policy *Policy

	// Sharded-counter options; ignored by the single-counter constructors.
	momGroups  int
	fullBudget bool

	// Partitioned-deployment options (WithPartition); partitionCount == 0
	// means not partitioned.
	partitionIndex int
	partitionCount int

	// Temporal-mode options (WithWindow, WithDecay); both zero means
	// whole-stream estimation.
	window   int64
	halflife float64
}

// Option configures a counter constructor.
type Option func(*options)

// newOptions applies opts over the defaults (seed 1, WSD-H, whole stream).
func newOptions(opts []Option) options {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithSeed fixes the sampler's randomness; counters with equal seeds and
// inputs are fully deterministic.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithWeightFunc uses a custom weight function W(e, R) (defaults to the
// paper's WSD-H heuristic 9|H(e)|+1).
func WithWeightFunc(w WeightFunc) Option {
	return func(o *options) { o.weight = w }
}

// WithPolicy uses a trained WSD-L policy as the weight function.
func WithPolicy(p *Policy) Option {
	return func(o *options) { o.policy = p }
}

// WithMedianOfMeans makes a sharded counter combine its shard estimates with
// a median-of-means over the given number of groups instead of the plain
// mean. groups equal to the shard count is the plain median. Median-of-means
// is robust to the heavy right tail of inverse-probability estimates; the
// mean preserves exact unbiasedness. Ignored by non-sharded constructors.
func WithMedianOfMeans(groups int) Option {
	return func(o *options) { o.momGroups = groups }
}

// WithFullBudgetShards gives every shard the full reservoir budget m instead
// of the default split m/shards. This uses shards times the memory and buys
// pure variance reduction (the ensemble mean has 1/shards of the
// single-counter variance). Ignored by non-sharded constructors.
func WithFullBudgetShards() Option {
	return func(o *options) { o.fullBudget = true }
}

// WithPartition declares the counter to be partition index of a count-way
// partitioned fleet: the coordinator routes each edge to the owners of its
// endpoints (internal/partition.Owner — a fixed vertex hash), and this
// counter scales every contribution by the fraction of the completing edge's
// endpoints it owns (1/2 or 1), so the fleet's summed estimates — divided by
// the pattern's visibility factor partition.Beta — stay unbiased. Applies to
// every constructor and restore; must match the coordinator's fleet size and
// this worker's slot in it.
func WithPartition(index, count int) Option {
	return func(o *options) { o.partitionIndex, o.partitionCount = index, count }
}

// WithWindow restricts estimation to a sliding window over the last w
// insertion events: an edge inserted at tick t stops contributing at tick
// t+w, expired through the same deletion path genuine stream deletions use,
// so "how many triangles formed in the last w insertions" is served with the
// whole-stream estimator's statistical guarantees. Time is insertion-event
// time — the stream carries no wall-clock timestamps, so "the last hour"
// translates to the producer's known event rate. w = math.MaxInt64 (nothing
// ever expires) is bit-identical to the whole-stream counter. Mutually
// exclusive with WithDecay; not supported by local counters.
func WithWindow(w int64) Option {
	return func(o *options) { o.window = w }
}

// WithDecay exponentially decays the estimate with the given halflife,
// measured in insertion events: a pattern instance aged dt ticks contributes
// 2^(-dt/halflife) of its weight, so the estimate tracks recent formation
// activity instead of the all-time count. Sampling weights grow by the
// inverse factor, biasing the reservoir toward recent edges by exactly the
// decay ratio (the WRS temporal-locality insight). halflife = +Inf is
// bit-identical to the whole-stream counter. Mutually exclusive with
// WithWindow; not supported by local counters.
func WithDecay(halflife float64) Option {
	return func(o *options) { o.halflife = halflife }
}

// resolveTemporal reduces the WithWindow/WithDecay options to a validated
// window.Spec.
func resolveTemporal(o *options) (window.Spec, error) {
	return window.New(o.window, o.halflife)
}

// partitionWeight reduces the WithPartition option to the per-edge
// contribution scale, or nil when not partitioned.
func partitionWeight(o *options) (func(graph.Edge) float64, error) {
	if o.partitionCount == 0 && o.partitionIndex == 0 {
		return nil, nil
	}
	if o.partitionCount < 1 || o.partitionIndex < 0 || o.partitionIndex >= o.partitionCount {
		return nil, fmt.Errorf("wsd: WithPartition(%d, %d): index must be in [0, count)", o.partitionIndex, o.partitionCount)
	}
	return partition.EventWeight(o.partitionIndex, o.partitionCount), nil
}

// resolveWeight reduces the weight-related options to the effective weight
// function, defaulting to the paper's WSD-H heuristic.
func resolveWeight(o *options) (WeightFunc, error) {
	w := o.weight
	if o.policy != nil {
		if w != nil {
			return nil, fmt.Errorf("wsd: WithWeightFunc and WithPolicy are mutually exclusive")
		}
		w = o.policy.Func()
	}
	if w == nil {
		w = weights.GPSDefault()
	}
	return w, nil
}

// skipTemporal reports whether the counter can skip extracting the temporal
// state features: the default WSD-H heuristic reads only the topological
// features, so nothing observes them. A trained policy consumes them, and a
// user-supplied weight function might, so both keep the full state.
func skipTemporal(o *options) bool {
	return o.policy == nil && o.weight == nil
}

// policyAnnotation converts the WithPolicy option into the core-layer
// annotation that snapshots embed and serving layers report; nil when the
// counter runs a heuristic or user-supplied weight function.
func policyAnnotation(o *options) *core.PolicyParams {
	if o.policy == nil {
		return nil
	}
	return policy.Params(o.policy)
}

// restoreWeight resolves the weight function for a restore with the
// precedence the snapshot-v4 policy embedding defines: explicit weight
// options (WithPolicy, WithWeightFunc) win, exactly as before; otherwise a
// policy embedded in the snapshot is revived (the restored counter keeps
// drawing the learned weights that built its sample, which is what makes
// resume bit-identical under WSD-L without re-supplying the artifact); only
// when neither exists does the default WSD-H heuristic apply. Each call
// builds a fresh policy closure, so per-shard callers get goroutine-private
// scratch state.
func restoreWeight(o *options, embedded *core.PolicyParams) (WeightFunc, bool, *core.PolicyParams, error) {
	if o.policy != nil || o.weight != nil {
		w, err := resolveWeight(o)
		if err != nil {
			return nil, false, nil, err
		}
		return w, skipTemporal(o), policyAnnotation(o), nil
	}
	if embedded != nil {
		return policy.FromParams(embedded).Func(), false, embedded.Clone(), nil
	}
	return weights.GPSDefault(), true, nil, nil
}

// coreConfig resolves the constructor options into the core configuration
// counting patterns (primary first) with reservoir capacity m, shared by every
// counter constructor. The weight function and seed serve a single counter;
// the sharded builder replaces them per shard.
func coreConfig(o *options, patterns []Pattern, m int) (core.Config, error) {
	if len(patterns) == 0 {
		return core.Config{}, fmt.Errorf("wsd: no patterns to count")
	}
	w, err := resolveWeight(o)
	if err != nil {
		return core.Config{}, err
	}
	ew, err := partitionWeight(o)
	if err != nil {
		return core.Config{}, err
	}
	spec, err := resolveTemporal(o)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		M:            m,
		Pattern:      patterns[0],
		Secondary:    patterns[1:],
		Weight:       w,
		Rng:          xrand.New(o.seed),
		SkipTemporal: skipTemporal(o),
		Policy:       policyAnnotation(o),
		EventWeight:  ew,
		Temporal:     spec,
	}, nil
}

// NewCounter returns a WSD counter for the given pattern with reservoir
// capacity m: a one-pattern MultiCounter. Without options it is WSD-H (the
// paper's heuristic instance).
func NewCounter(p Pattern, m int, opts ...Option) (Counter, error) {
	c, err := NewMultiCounter([]Pattern{p}, m, opts...)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewTriangleCounter returns a WSD triangle counter with reservoir capacity
// m.
func NewTriangleCounter(m int, opts ...Option) (Counter, error) {
	return NewCounter(TrianglePattern, m, opts...)
}

// NewWedgeCounter returns a WSD wedge counter with reservoir capacity m.
func NewWedgeCounter(m int, opts ...Option) (Counter, error) {
	return NewCounter(WedgePattern, m, opts...)
}

// ExactCounter tracks exact subgraph counts over a dynamic stream; use it as
// ground truth when validating estimates on small streams.
type ExactCounter struct {
	inner *exact.Counter
	kind  Pattern
}

// NewExactCounter returns an exact counter for pattern p.
func NewExactCounter(p Pattern) *ExactCounter {
	return &ExactCounter{inner: exact.New(p), kind: p}
}

// Process consumes one event.
func (c *ExactCounter) Process(ev Event) { c.inner.Apply(ev) }

// Estimate returns the exact count (the name keeps it a Counter).
func (c *ExactCounter) Estimate() float64 { return float64(c.inner.Count(c.kind)) }

// Name identifies the counter.
func (c *ExactCounter) Name() string { return "exact" }

// TrainPolicy trains a WSD-L weight policy with DDPG on the given training
// streams (Section IV of the paper). m is the reservoir size used during
// training episodes; iterations is the gradient-update budget (the paper uses
// 1,000).
func TrainPolicy(p Pattern, m, iterations int, trainStreams []Stream, seed int64) (*Policy, error) {
	policy, _, err := rl.Train(rl.TrainConfig{
		Pattern:    p,
		M:          m,
		Streams:    trainStreams,
		Iterations: iterations,
		Seed:       seed,
	})
	return policy, err
}

// HeuristicWeight returns the paper's WSD-H weight function 9|H(e)|+1.
func HeuristicWeight() WeightFunc { return weights.GPSDefault() }

// UniformWeight returns the constant weight function (uniform sampling).
func UniformWeight() WeightFunc { return weights.Uniform() }

// LocalCounter estimates both the global pattern count and per-vertex
// participation counts (local counting, the companion problem behind the
// anomaly-detection applications in the paper's introduction).
type LocalCounter = local.Counter

// VertexCount pairs a vertex with its local estimate.
type VertexCount = local.VertexCount

// NewLocalCounter returns a WSD counter that additionally maintains unbiased
// per-vertex participation estimates.
func NewLocalCounter(p Pattern, m int, opts ...Option) (*LocalCounter, error) {
	o := newOptions(opts)
	if o.window != 0 || o.halflife != 0 {
		// The per-vertex estimates do not yet carry the temporal modes (a
		// decayed global estimate with undecayed local counts would be
		// silently inconsistent), so refuse loudly instead.
		return nil, fmt.Errorf("wsd: local counters do not support WithWindow/WithDecay")
	}
	cfg, err := coreConfig(&o, []Pattern{p}, m)
	if err != nil {
		return nil, err
	}
	return local.New(cfg)
}

// Batch is a refcounted, pool-recycled batch of events: the zero-allocation
// currency between stream producers and the ingestion layers. Get one from a
// BatchPool, fill Events, and hand it to Processor.SubmitPooled or
// ShardedCounter.SubmitPooled, which release it back to the pool after the
// events are applied.
type Batch = stream.Batch

// BatchPool recycles Batches; the zero value is ready to use.
type BatchPool = stream.BatchPool

// Processor ingests events from concurrent producers and publishes the
// running estimate for lock-free readers; see NewProcessor. It is a
// ShardedCounter of one shard: Submit enqueues one event without allocating,
// SubmitBatch is the amortized fast path and SubmitPooled its zero-allocation
// variant over pooled batches. Quiesce hands the callback the counter as
// shard 0, typed ShardCounter. Wrapping a MultiCounter publishes all of its
// estimates: read them with EstimateAt or EstimateVector in Patterns order.
// Snapshot returns a one-shard ensemble blob: RestoreShardedCounter revives
// it as a sharded counter, and RestoreCounter or RestoreLocalCounter
// (matching the wrapped counter) revive the counter itself, ready for a new
// NewProcessor.
type Processor = ShardedCounter

// NewProcessor wraps a counter in a dedicated ingestion goroutine with the
// given channel buffer, measured in envelopes (one Submit event or one whole
// batch). The counter must not be used directly afterwards; c must not be
// nil.
func NewProcessor(c Counter, buffer int) *Processor {
	p, err := shard.New([]shard.Counter{c}, shard.WithBuffer(buffer))
	if err != nil {
		// One counter can only fail the nil check: a caller bug.
		panic(err)
	}
	return p
}

// ShardCounter is one shard's counter as ShardedCounter.Quiesce (and so
// Processor.Quiesce) hands it to the callback: func(i int, c ShardCounter)
// error. The package's counters satisfy it; inside the callback the shard is
// exclusively the caller's, so wsd.Checkpoint(c) reads that shard's own
// bytes.
type ShardCounter = shard.Counter

// ShardedCounter is an ensemble of independently seeded WSD counters driven
// concurrently on a worker pool; see NewShardedCounter. Feed it with Submit
// or (preferably) SubmitBatch, read Estimate concurrently, and Close it to
// drain and obtain the final combined estimate.
type ShardedCounter = shard.Ensemble

// NewShardedCounter returns an ensemble of shards independently seeded WSD
// counters for pattern p, all fed every event, whose estimates are combined
// into one ensemble estimate (mean by default; see WithMedianOfMeans).
//
// By default the reservoir budget m is split across the shards (each shard
// gets m/shards edges, remainders distributed, so total memory equals a
// single counter with budget m); WithFullBudgetShards gives every shard the
// full m instead. Split budget is the throughput operating point: for
// patterns with superlinear per-event enumeration cost the K small reservoirs
// do less total work than one large one, and the shards run concurrently.
// Full budget is the accuracy operating point: the mean of K independent
// estimates has 1/K of the variance.
//
// A custom WithWeightFunc function is shared by every shard and must be safe
// for concurrent use (the built-in heuristics are). A trained policy is safe:
// each shard receives its own evaluation closure, since a policy closure's
// scratch state is single-goroutine.
func NewShardedCounter(p Pattern, m, shards int, opts ...Option) (*ShardedCounter, error) {
	return newShardedCounter([]Pattern{p}, m, shards, opts)
}

// newShardedCounter is the one ensemble builder behind NewShardedCounter and
// NewShardedMultiCounter: shards independently seeded core counters over
// patterns (primary first), each with its split or full budget.
func newShardedCounter(patterns []Pattern, m, shards int, opts []Option) (*ShardedCounter, error) {
	if shards < 1 {
		return nil, fmt.Errorf("wsd: shards=%d, need at least 1", shards)
	}
	o := newOptions(opts)
	cfg, err := coreConfig(&o, patterns, m)
	if err != nil {
		return nil, err
	}
	budgets := shard.SplitBudget(m, shards)
	counters := make([]shard.Counter, shards)
	for i := range counters {
		ci := cfg
		if !o.fullBudget {
			ci.M = budgets[i]
			for _, p := range patterns {
				if ci.M < p.Size() {
					return nil, fmt.Errorf("wsd: split budget m/shards=%d/%d is below pattern size |H|=%d for %s; use fewer shards, a larger m, or WithFullBudgetShards", m, shards, p.Size(), p)
				}
			}
		}
		if o.policy != nil {
			// Policy closures carry per-call scratch state; give each shard
			// worker goroutine its own.
			ci.Weight = o.policy.Func()
		}
		ci.Rng = xrand.NewSequence(o.seed, int64(i))
		c, err := core.New(ci)
		if err != nil {
			return nil, err
		}
		counters[i] = c
	}
	return shard.New(counters, shardOptions(&o)...)
}

// shardOptions reduces the sharding-related options to shard.Options, shared
// by NewShardedCounter and RestoreShardedCounter.
func shardOptions(o *options) []shard.Option {
	if o.momGroups > 0 {
		return []shard.Option{shard.WithCombiner(combine.MedianOfMeans(o.momGroups))}
	}
	return nil
}

// Checkpointable is implemented by counters whose complete state — reservoir,
// thresholds, temporal bookkeeping, and RNG state — serializes to bytes: the
// MultiCounter that NewCounter and NewMultiCounter build (RestoreCounter
// revives it) and the LocalCounter (RestoreLocalCounter). The ingestion
// layers (Processor, ShardedCounter) do not: they checkpoint through their
// own Snapshot method. A Processor's Snapshot blob restores through the
// wrapped counter's own restore function, and the counter's own bytes stay
// reachable by calling Checkpoint on the ShardCounter that Quiesce hands its
// callback. A counter restored from a checkpoint continues bit-identically to
// the uninterrupted run: same sample trajectory, same estimates.
type Checkpointable interface {
	Checkpoint() ([]byte, error)
}

// Checkpoint serializes a counter's complete state. It accepts the
// package's counters — single, local, or multi-pattern — and fails for
// values that do not implement Checkpointable: the exact oracle, and the
// ingestion layers, whose Snapshot method serves instead.
func Checkpoint(c any) ([]byte, error) {
	ck, ok := c.(Checkpointable)
	if !ok {
		if named, ok := c.(interface{ Name() string }); ok {
			return nil, fmt.Errorf("wsd: %s counter does not support checkpointing", named.Name())
		}
		return nil, fmt.Errorf("wsd: %T does not support checkpointing", c)
	}
	return ck.Checkpoint()
}

// RestoreCounter revives a counter from a Checkpoint blob produced by a
// NewCounter or NewMultiCounter counter; the patterns, budget, estimates and
// temporal mode come from the blob, so a multi-pattern counter continues on
// every pattern. Heuristic and user-supplied weight functions are code, not
// state, so the same weight options used at construction time must be passed
// again; a learned policy travels in the snapshot itself (format v4) and is
// revived automatically when no explicit weight option is given. The RNG
// state comes from the checkpoint, making the restored counter's future
// trajectory bit-identical to the uninterrupted one.
//
// The Snapshot blob of a Processor wrapping such a counter restores here
// too: a one-shard ensemble blob is unwrapped to its shard's counter bytes.
func RestoreCounter(data []byte, opts ...Option) (*MultiCounter, error) {
	o := newOptions(opts)
	snap, err := decodeCounterBlob(data, core.DecodeSnapshot)
	if err != nil {
		return nil, err
	}
	return restoreCore(snap, &o, xrand.New(o.seed))
}

// RestoreLocalCounter revives a local counter from a Checkpoint blob produced
// by a NewLocalCounter counter, per-vertex estimates included. Like
// RestoreCounter it also accepts the Snapshot blob of a Processor wrapping
// such a counter.
func RestoreLocalCounter(data []byte, opts ...Option) (*LocalCounter, error) {
	o := newOptions(opts)
	if o.window != 0 || o.halflife != 0 {
		return nil, fmt.Errorf("wsd: local counters do not support WithWindow/WithDecay")
	}
	snap, err := decodeCounterBlob(data, local.DecodeSnapshot)
	if err != nil {
		return nil, err
	}
	cfg, err := restoreConfig(&o, snap.Core.Policy, xrand.New(o.seed))
	if err != nil {
		return nil, err
	}
	return local.Restore(snap, cfg)
}

// decodeCounterBlob decodes a single counter's snapshot with decode. When
// that fails and data is a one-shard ensemble blob — what Processor.Snapshot
// returns — it decodes the shard's counter bytes instead, so the plain
// restores revive the counter a Processor wrapped. The ensemble probe runs
// only after the direct decode has failed, so Checkpoint blobs pay one parse.
func decodeCounterBlob[S any](data []byte, decode func([]byte) (S, error)) (S, error) {
	s, err := decode(data)
	if err != nil {
		if snap, perr := shard.DecodeEnsembleSnapshot(data); perr == nil && len(snap.Shards) == 1 {
			return decode(snap.Shards[0])
		}
	}
	return s, err
}

// ShardedSnapshotInfo summarizes a ShardedCounter snapshot blob without
// restoring it: what pattern(s) it counts, how many shards it holds, and the
// total reservoir budget across shards. Deployments use it to refuse a
// snapshot that does not match their configuration before swapping it in.
type ShardedSnapshotInfo struct {
	// Patterns lists every counted pattern in estimator order, primary
	// first; a single-pattern deployment lists its one pattern.
	Patterns []Pattern
	Shards   int
	TotalM   int // sum of per-shard budgets (equals m in split-budget mode, m*Shards in full-budget mode)
	// Position is the absolute stream position the snapshot was taken at
	// (zero for snapshots predating the field). Restores seed the rebuilt
	// ensemble's Processed with it, so a deployment's reported position
	// survives checkpoint/restore.
	Position int64
	// Policy is the learned policy active when the snapshot was taken, nil
	// for heuristic weights (and for snapshots predating format v4). Every
	// shard must carry the same policy; a restore without explicit weight
	// options revives it.
	Policy *core.PolicyParams
	// Window and Halflife record the temporal estimation mode (format v5);
	// both zero for whole-stream snapshots and for snapshots predating the
	// field. Every shard must carry the same mode.
	Window   int64
	Halflife float64
}

// decodeShardedSnapshot decodes an ensemble blob into per-shard core
// snapshots plus the summary info, shared by InspectShardedSnapshot and the
// restore path so validation never forces a second full decode. Cluster
// snapshots (internal/cluster: one ensemble blob per worker node) are
// recognized and refused with a pointed error — the restore dispatch
// otherwise reads their version field as 0 and the mistake would surface as
// a confusing version error. The probe only runs after the ensemble decode
// has already failed, so valid restores never pay a second parse.
func decodeShardedSnapshot(data []byte) ([]*core.Snapshot, ShardedSnapshotInfo, error) {
	snap, err := shard.DecodeEnsembleSnapshot(data)
	if err != nil {
		var clusterProbe struct {
			ClusterVersion int `json:"cluster_version"`
		}
		if json.Unmarshal(data, &clusterProbe) == nil && clusterProbe.ClusterVersion > 0 {
			return nil, ShardedSnapshotInfo{}, fmt.Errorf("wsd: blob is a cluster snapshot (cluster_version %d) spanning several worker processes; restore it through a coordinator's /restore, not a single-process ensemble", clusterProbe.ClusterVersion)
		}
		return nil, ShardedSnapshotInfo{}, err
	}
	cores := make([]*core.Snapshot, len(snap.Shards))
	info := ShardedSnapshotInfo{Shards: len(snap.Shards), Position: snap.Position}
	for i, raw := range snap.Shards {
		cs, err := core.DecodeSnapshot(raw)
		if err != nil {
			if _, lerr := local.DecodeSnapshot(raw); lerr == nil {
				return nil, ShardedSnapshotInfo{}, fmt.Errorf("wsd: shard %d holds a local counter, which a sharded counter cannot run; restore a Processor's snapshot of a local counter with RestoreLocalCounter", i)
			}
			return nil, ShardedSnapshotInfo{}, fmt.Errorf("wsd: shard %d: %w", i, err)
		}
		patterns := cs.Counted()
		if i == 0 {
			info.Patterns = slices.Clone(patterns)
			info.Policy = cs.Policy.Clone()
			info.Window, info.Halflife = cs.Window, cs.Halflife
		} else if !slices.Equal(info.Patterns, patterns) {
			return nil, ShardedSnapshotInfo{}, fmt.Errorf("wsd: snapshot mixes patterns across shards (%v vs %v)", info.Patterns, patterns)
		} else if shardPolicyID(cs.Policy) != shardPolicyID(info.Policy) {
			return nil, ShardedSnapshotInfo{}, fmt.Errorf("wsd: snapshot mixes policies across shards (shard %d has %q, shard 0 has %q)", i, shardPolicyID(cs.Policy), shardPolicyID(info.Policy))
		} else if cs.Window != info.Window || cs.Halflife != info.Halflife {
			return nil, ShardedSnapshotInfo{}, fmt.Errorf("wsd: snapshot mixes temporal modes across shards (shard %d has window=%d halflife=%v, shard 0 has window=%d halflife=%v)", i, cs.Window, cs.Halflife, info.Window, info.Halflife)
		}
		info.TotalM += cs.M
		cores[i] = cs
	}
	return cores, info, nil
}

// shardPolicyID renders a policy annotation for uniformity comparison and
// error messages; the empty string means heuristic weights.
func shardPolicyID(p *core.PolicyParams) string {
	if p == nil {
		return ""
	}
	return p.ID
}

// InspectShardedSnapshot decodes the header and per-shard metadata of a
// ShardedCounter.Snapshot blob.
func InspectShardedSnapshot(data []byte) (ShardedSnapshotInfo, error) {
	_, info, err := decodeShardedSnapshot(data)
	return info, err
}

// RestoreShardedCounter revives a sharded counter from a blob produced by
// ShardedCounter.Snapshot. Reservoir budgets, pattern(s), and per-shard RNG
// states come from the snapshot; heuristic weight functions and the combiner
// are code and are re-supplied through the options, which must match the
// original construction for the ensemble to continue bit-identically. A
// learned policy needs no re-supplying: the snapshot embeds it, and the
// restore revives it whenever no explicit weight option overrides. Snapshots
// from multi-pattern deployments (NewShardedMultiCounter) restore
// multi-pattern shards automatically.
func RestoreShardedCounter(data []byte, opts ...Option) (*ShardedCounter, error) {
	return RestoreShardedCounterChecked(data, nil, opts...)
}

// RestoreShardedCounterChecked is RestoreShardedCounter with a validation
// hook: check (if non-nil) sees the snapshot's summary before any counter is
// built and can veto the restore — how a deployment refuses a snapshot that
// does not match its configuration, with a single decode of the blob.
func RestoreShardedCounterChecked(data []byte, check func(ShardedSnapshotInfo) error, opts ...Option) (*ShardedCounter, error) {
	o := newOptions(opts)
	cores, info, err := decodeShardedSnapshot(data)
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(info); err != nil {
			return nil, err
		}
	}
	counters := make([]shard.Counter, len(cores))
	for i, snap := range cores {
		c, err := restoreCore(snap, &o, xrand.NewSequence(o.seed, int64(i)))
		if err != nil {
			return nil, fmt.Errorf("wsd: restore shard %d: %w", i, err)
		}
		counters[i] = c
	}
	return shard.New(counters, append(shardOptions(&o), shard.WithBasePosition(info.Position))...)
}

// restoreCore rebuilds one core counter from its decoded snapshot, for
// RestoreCounter and each shard of RestoreShardedCounter: single- and
// multi-pattern snapshots restore alike.
func restoreCore(snap *core.Snapshot, o *options, rng core.Rand) (*core.Counter, error) {
	cfg, err := restoreConfig(o, snap.Policy, rng)
	if err != nil {
		return nil, err
	}
	return core.Restore(snap, cfg)
}

// restoreConfig resolves the options into the core.Config every restore
// passes alongside its snapshot (embedded is the snapshot's policy). rng only
// serves snapshots without RNG state. Weight precedence follows
// restoreWeight, called per counter so policy closures — explicit or
// snapshot-embedded — are private to each shard worker goroutine.
func restoreConfig(o *options, embedded *core.PolicyParams, rng core.Rand) (core.Config, error) {
	w, skip, params, err := restoreWeight(o, embedded)
	if err != nil {
		return core.Config{}, err
	}
	ew, err := partitionWeight(o)
	if err != nil {
		return core.Config{}, err
	}
	spec, err := resolveTemporal(o)
	if err != nil {
		return core.Config{}, err
	}
	// A zero spec adopts the snapshot's mode; an explicit WithWindow/
	// WithDecay must match it (core.Restore checks).
	return core.Config{Weight: w, Rng: rng, SkipTemporal: skip, Policy: params, EventWeight: ew, Temporal: spec}, nil
}

// weightSwapper is the optional shard-counter interface behind SwapPolicy;
// the facade's core counters implement it.
type weightSwapper interface {
	SetWeight(w weights.Func, skipTemporal bool, params *core.PolicyParams)
}

// SwapPolicy atomically replaces the weight function of a live sharded
// counter with a trained policy, without losing reservoir state: the swap
// runs under the ensemble's quiesce barrier (every in-flight batch drained,
// every worker parked), each shard receives its own policy closure, and
// weights only affect future events — ranks already drawn keep their values,
// so the estimator stays unbiased across the swap (Theorem 4 conditions only
// on the weights used at each event's own draw). Passing nil reverts to the
// WSD-H heuristic.
//
// The swap is all-or-nothing: every shard's counter is verified to support
// weight swapping before any is touched (ensembles built by this package
// always do; hand-built ensembles over custom shard.Counter implementations
// may not). Subsequent snapshots embed the new policy, so a restore resumes
// under it bit-identically.
func SwapPolicy(c *ShardedCounter, p *Policy) error {
	var params *core.PolicyParams
	if p != nil {
		if len(p.W) == 0 {
			return fmt.Errorf("wsd: SwapPolicy: policy has an empty weight vector")
		}
		params = policy.Params(p)
	}
	// First pass verifies support on every shard without mutating anything,
	// so a mixed ensemble refuses cleanly instead of swapping some shards.
	// The verdict is a property of the counter types, so it cannot change
	// between the two barriers.
	if err := c.Quiesce(func(i int, sc shard.Counter) error {
		if _, ok := sc.(weightSwapper); !ok {
			return fmt.Errorf("wsd: SwapPolicy: shard %d counter (%T) does not support weight swapping", i, sc)
		}
		return nil
	}); err != nil {
		return err
	}
	return c.Quiesce(func(i int, sc shard.Counter) error {
		ws := sc.(weightSwapper)
		if p == nil {
			ws.SetWeight(weights.GPSDefault(), true, nil)
			return nil
		}
		// Policy closures carry per-call scratch state; give each shard
		// worker goroutine its own.
		ws.SetWeight(p.Func(), false, params)
		return nil
	})
}

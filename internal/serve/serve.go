// Package serve is the HTTP front end over the sharded counter: the piece
// that turns the library into a long-running service. It exposes batch
// ingestion (text or binary stream bodies), the combined estimate — for one
// pattern or for a whole multi-pattern set counted over the same ingested
// stream — and checkpoint/restore of the full sampler state, so a deployment
// can survive restarts and be rebalanced without replaying its (single-pass,
// unreplayable) stream.
//
// Server fronts one wsd.ShardedCounter, which already serializes ingestion
// per shard and publishes estimates for lock-free readers; Coordinator fronts
// a worker fleet (internal/cluster). Both serve one route table (routes.go)
// over a small backend interface, which reads capped bodies, maps errors to
// statuses and answers /estimate queries once for both. Only a worker serves
// /policy/shadow, and only a coordinator POST /catchup. docs/operations.md
// documents every route (make docs-check fails on a missing one).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	wsd "repro"

	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/window"
)

// Config describes the counter the server fronts.
type Config struct {
	// Pattern is the subgraph pattern served. Required unless Patterns is
	// set.
	Pattern wsd.Pattern
	// Patterns, when non-empty, makes the deployment multi-pattern: one
	// ingested stream serves an estimate per listed pattern (primary first —
	// the sampling weights are tuned for Patterns[0]). Pattern is ignored.
	Patterns []wsd.Pattern
	// M is the total reservoir budget. Required.
	M int
	// Shards is the ensemble width; values < 1 mean 1.
	Shards int
	// Options are passed to NewShardedMultiCounter and RestoreShardedCounter,
	// so seed, weight function, combiner and budget mode survive /restore.
	// Prefer Policy over a raw wsd.WithPolicy option here: the server keeps
	// Policy out of the restore options so a snapshot's own embedded policy
	// governs a /restore, and /policy reporting stays accurate.
	Options []wsd.Option
	// Policy, when non-nil, boots the counter under this trained WSD-L
	// artifact (wsdserve -policy): the learned weight function applies from
	// the first event, GET /policy serves the artifact's identity and
	// provenance, and snapshots embed the policy so restores resume under
	// it. The artifact's pattern must match the served primary pattern.
	Policy *policy.Artifact
	// MaxBodyBytes caps request bodies; 0 means 64 MiB.
	MaxBodyBytes int64
	// PartitionCount, when > 0, declares this worker partition PartitionIndex
	// of a PartitionCount-way partitioned fleet: the counter weighs each
	// event by its owned-endpoint fraction (wsd.WithPartition), /healthz
	// reports the slot so a partitioned coordinator can verify its routing
	// matches the fleet, and the assignment survives /restore.
	PartitionCount int
	// PartitionIndex is this worker's slot in [0, PartitionCount); ignored
	// when PartitionCount is 0.
	PartitionIndex int
	// Window, when > 0, makes the deployment serve sliding-window estimates
	// over the last Window insertion events (wsd.WithWindow): every
	// /estimate reply is the windowed count, /healthz reports the mode, and
	// the mode survives /restore. Applies to every served pattern. Mutually
	// exclusive with Halflife.
	Window int64
	// Halflife, when > 0, makes the deployment serve exponentially decayed
	// estimates with this halflife in insertion events (wsd.WithDecay).
	// Applies to every served pattern. Mutually exclusive with Window.
	Halflife float64
}

const defaultMaxBodyBytes = 64 << 20

// Server fronts one sharded counter. Construct with New; the zero value is
// not usable.
type Server struct {
	cfg Config
	// patterns is the served pattern set in estimator order: cfg.Patterns
	// for multi-pattern deployments, [cfg.Pattern] otherwise.
	patterns []wsd.Pattern

	// mu guards ens as a pointer: ingest/estimate/snapshot hold the read
	// lock (the ensemble itself is concurrency-safe), restore swaps the
	// ensemble under the write lock.
	mu  sync.RWMutex
	ens *wsd.ShardedCounter

	// batches recycles ingest buffers: binary request frames are decoded
	// into pooled batches that the shard workers release after applying, so
	// steady-state binary ingestion allocates nothing per frame.
	batches stream.BatchPool

	// posMu orders ingests and guards streamPos: the count of events this
	// server has accepted (submitted in order) since stream start, the
	// position a coordinator stamps replayed frames against. It counts
	// submission, not application — the ensemble applies submitted batches
	// in order, so an event past streamPos is guaranteed new and one before
	// it is guaranteed already en route. Lock order: posMu before mu.
	// streamPos is only written under posMu; it is atomic so /healthz can
	// report it without waiting behind an ingest.
	posMu     sync.Mutex
	streamPos atomic.Int64

	// policy records the active learned policy, nil when the counter runs
	// the WSD-H heuristic: set at boot from Config.Policy, replaced by
	// PUT /policy, re-derived from the snapshot on restore. Guarded by mu.
	policy *policyStatus

	// temporal is the validated serving mode from Config.Window/Halflife;
	// the zero Spec serves whole-stream estimates. /estimate queries that
	// assert a mode (?window=, ?halflife=) are matched against it.
	temporal window.Spec

	// shadow is the candidate-policy evaluation run (nil when none is
	// active): a second ensemble fed the same accepted events as the live
	// one, so an operator can score a candidate against the live weight
	// function before promoting it. The pointer is guarded by mu; shadow
	// ingestion happens under posMu like live ingestion, so both ensembles
	// see the identical event sequence. shadowBatches recycles the shadow's
	// ingest buffers separately from the live pool.
	shadow        *shadowRun
	shadowBatches stream.BatchPool
}

// StreamPosHeader is the request header a coordinator sets on /ingest to
// declare the absolute stream position of the body's first event. A stamped
// request is idempotent: events at positions the server has already accepted
// are skipped and reported back as "duplicate", so a replay after an
// ambiguous ack (the request applied but the response was lost) cannot
// double-count. A stamped position ahead of the server's own is a gap — the
// server refuses it with 409 rather than corrupt its stream order.
const StreamPosHeader = stream.PosHeader

// New builds the counter and returns a ready server.
func New(cfg Config) (*Server, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.PartitionCount > 0 {
		// Clip before appending so the caller's slice is never mutated; the
		// option lands in cfg.Options so /restore rebuilds the same weighting.
		opts := cfg.Options[:len(cfg.Options):len(cfg.Options)]
		cfg.Options = append(opts, wsd.WithPartition(cfg.PartitionIndex, cfg.PartitionCount))
	}
	temporal, err := window.New(cfg.Window, cfg.Halflife)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Normalized (halflife=+Inf becomes whole-stream) so /healthz, restore
	// checks, and query matching all compare one canonical form.
	cfg.Window, cfg.Halflife = temporal.Window, temporal.Halflife
	if !temporal.IsZero() {
		// Like the partition option: land the mode in cfg.Options so
		// /restore rebuilds (and cross-checks) the same temporal counter.
		opts := cfg.Options[:len(cfg.Options):len(cfg.Options)]
		if temporal.Window > 0 {
			cfg.Options = append(opts, wsd.WithWindow(temporal.Window))
		} else {
			cfg.Options = append(opts, wsd.WithDecay(temporal.Halflife))
		}
	}
	patterns := []wsd.Pattern{cfg.Pattern}
	if len(cfg.Patterns) > 0 {
		patterns = append([]wsd.Pattern(nil), cfg.Patterns...)
	}
	// The boot policy is appended to a clipped copy for construction only:
	// cfg.Options stays policy-free so a later /restore lets the snapshot's
	// own embedded policy govern the revived weight function.
	buildOpts := cfg.Options
	var status *policyStatus
	if cfg.Policy != nil {
		if cfg.Policy.Pattern != patterns[0] {
			return nil, fmt.Errorf("serve: policy artifact is trained for %s, server's primary pattern is %s", cfg.Policy.Pattern, patterns[0])
		}
		buildOpts = append(cfg.Options[:len(cfg.Options):len(cfg.Options)], wsd.WithPolicy(cfg.Policy.Policy))
		status = statusFromArtifact(cfg.Policy, policySourceBoot)
	}
	ens, err := wsd.NewShardedMultiCounter(patterns, cfg.M, cfg.Shards, buildOpts...)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, patterns: patterns, ens: ens, policy: status, temporal: temporal}, nil
}

// Close drains and stops the counter (and any shadow evaluation), returning
// the final estimate.
func (s *Server) Close() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.shadow != nil {
		s.shadow.ens.Close()
	}
	return s.ens.Close()
}

// Flush blocks until every batch accepted so far has been applied by every
// shard, returning the stream position at the barrier (also served at
// POST /flush). It is the cheap way to make a subsequent Estimate reflect
// everything already ingested: Snapshot gives the same drain but pays for a
// full state serialization on top.
func (s *Server) Flush() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.ens.Flush(); err != nil {
		return 0, err
	}
	return s.ens.Processed(), nil
}

// Snapshot returns the encoded state of the current ensemble (also served at
// /snapshot); exposed so a main can checkpoint on shutdown.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ens.Snapshot()
}

// Restore swaps in an ensemble rebuilt from a snapshot blob (also served at
// /restore); exposed so a main can reload a checkpoint before listening. The
// snapshot must describe the same deployment this server was configured for
// — same pattern, same shard count, and a total budget matching either the
// split-budget (m) or full-budget (m*shards) mode — otherwise the swap is
// refused and the running ensemble is untouched. The previous ensemble is
// closed on success.
func (s *Server) Restore(blob []byte) (int, error) {
	var snapPolicy *policyStatus
	restored, err := wsd.RestoreShardedCounterChecked(blob, func(info wsd.ShardedSnapshotInfo) error {
		// The snapshot's embedded policy (if any) is what the revived
		// counter will run — record it for /policy and /healthz.
		snapPolicy = statusFromParams(info.Policy, policySourceSnapshot)
		if !slices.Equal(info.Patterns, s.patterns) {
			return fmt.Errorf("serve: snapshot counts %v, server is configured for %v", info.Patterns, s.patterns)
		}
		if info.Shards != s.cfg.Shards {
			return fmt.Errorf("serve: snapshot holds %d shards, server is configured for %d", info.Shards, s.cfg.Shards)
		}
		if info.TotalM != s.cfg.M && info.TotalM != s.cfg.M*s.cfg.Shards {
			return fmt.Errorf("serve: snapshot total budget %d does not match m=%d (split) or m*shards=%d (full)",
				info.TotalM, s.cfg.M, s.cfg.M*s.cfg.Shards)
		}
		if info.Window != s.cfg.Window || info.Halflife != s.cfg.Halflife {
			return fmt.Errorf("serve: snapshot temporal mode %s does not match server %s",
				window.Spec{Window: info.Window, Halflife: info.Halflife}, s.temporal)
		}
		return nil
	}, s.cfg.Options...)
	if err != nil {
		return 0, err
	}
	s.posMu.Lock()
	s.mu.Lock()
	old := s.ens
	s.ens = restored
	// The restored ensemble's position is exact — nothing is in flight yet —
	// so the idempotence counter re-anchors to it: a coordinator replaying
	// the log tail after this restore stamps against the snapshot position.
	s.streamPos.Store(restored.Processed())
	s.policy = snapPolicy
	// A running shadow evaluation is tied to the stream the live counter was
	// following; a restore rewinds or replaces that stream, so the
	// comparison is void.
	oldShadow := s.shadow
	s.shadow = nil
	s.mu.Unlock()
	s.posMu.Unlock()
	old.Close()
	if oldShadow != nil {
		oldShadow.ens.Close()
	}
	return restored.Shards(), nil
}

// Handler returns the HTTP handler: the shared route table over this
// server, plus the candidate-policy shadow routes only a worker serves.
func (s *Server) Handler() http.Handler {
	limit := s.cfg.MaxBodyBytes
	return newHandler(s, limit,
		route{"POST /policy/shadow", handle(limit, http.StatusBadRequest, withBody(s.startShadow))},
		route{"GET /policy/shadow", handle(0, http.StatusServiceUnavailable, noBody(s.shadowReport))},
		route{"DELETE /policy/shadow", handle(0, http.StatusNotFound, noBody(s.stopShadow))},
	)
}

// health reports real readiness, not a bare ok: what the deployment counts
// (pattern set), its ensemble shape (shard count, total budget), and how far
// it has read the stream. Coordinators probe this to build their fleet health
// report, and an operator can diff it against the intended deployment after a
// restart or restore.
func (s *Server) health() (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// "position" is the accepted stream position: the absolute count of
	// events this server has acknowledged on /ingest, the cursor stamped
	// ingests dedup against. It survives checkpoint/restore (the snapshot
	// records it). A log-mode coordinator reads it to align this worker
	// against its write-ahead log. "processed" is the applied count, which
	// trails "position" while submitted batches are still queued for the
	// shards and equals it once they drain (POST /flush).
	health := map[string]any{
		"status":    "ok",
		"pattern":   s.patterns[0].String(),
		"patterns":  s.patternNames(),
		"shards":    s.ens.Shards(),
		"m":         s.cfg.M,
		"processed": s.ens.Processed(),
		"position":  s.streamPos.Load(),
		// "policy" is the active policy's content ID, or "heuristic": a
		// cluster coordinator verifies the fleet runs one weight function
		// (a worker that missed a swap would estimate under different
		// sampling behavior than its peers).
		"policy": s.policy.id(),
		// The temporal serving mode, zero for whole-stream deployments: a
		// cluster coordinator verifies the fleet serves one mode (a worker
		// on the wrong window would gather incomparable estimates).
		"window":   s.cfg.Window,
		"halflife": s.cfg.Halflife,
	}
	if s.cfg.PartitionCount > 0 {
		// A partitioned coordinator verifies this against its own routing:
		// a worker in the wrong slot would weigh the wrong edges.
		health["partition"] = map[string]int{
			"index": s.cfg.PartitionIndex,
			"count": s.cfg.PartitionCount,
		}
	}
	return health, true
}

// ingest serves POST /ingest. A stamped request (StreamPosHeader) declares
// the absolute stream position of its first event; the stamp is parsed
// before any lock is taken, so a malformed one is a cheap 400.
func (s *Server) ingest(body []byte, h http.Header) (any, error) {
	stamped := false
	var stampPos int64
	if v := h.Get(StreamPosHeader); v != "" {
		pos, err := strconv.ParseInt(v, 10, 64)
		if err != nil || pos < 0 {
			return nil, withStatus(http.StatusBadRequest, fmt.Errorf("serve: bad %s header %q", StreamPosHeader, v))
		}
		stamped, stampPos = true, pos
	}

	// posMu orders ingests into one stream position sequence (stamped or
	// not — a mixed deployment still needs one order to dedup against).
	// Binary bodies are submitted frame by frame — the wire format's frames
	// map 1:1 onto SubmitPooled batches — while text bodies are parsed whole.
	s.posMu.Lock()
	defer s.posMu.Unlock()
	pos := s.streamPos.Load()
	skip := int64(0)
	if stamped {
		if stampPos > pos {
			// The body starts past what this server has seen: applying it
			// would silently drop the gap. The coordinator heals by replaying
			// from this server's actual position instead.
			return nil, withStatus(http.StatusConflict,
				fmt.Errorf("serve: stream position gap: request starts at %d, server is at %d", stampPos, pos))
		}
		skip = pos - stampPos
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	accepted, duplicate, err := ingestSkip(s.ens, &s.batches, body, skip)
	if err != nil {
		if errors.Is(err, shard.ErrClosed) {
			return nil, withStatus(http.StatusServiceUnavailable, err)
		}
		return nil, withStatus(http.StatusBadRequest, err)
	}
	s.streamPos.Add(int64(accepted))
	if sh := s.shadow; sh != nil {
		// The shadow counter replays the exact accepted event sequence (same
		// body, same duplicate skip) under the candidate policy. A shadow
		// failure never fails live ingestion — it is recorded and reported
		// on GET /policy/shadow instead.
		if _, _, err := ingestSkip(sh.ens, &s.shadowBatches, body, skip); err != nil {
			sh.fail(err)
		}
	}
	if stamped {
		return map[string]any{"accepted": accepted, "duplicate": duplicate}, nil
	}
	return map[string]any{"accepted": accepted}, nil
}

// ingestSkip parses and submits one request body, dropping its first skip
// events as already-accepted duplicates, and returns the counts of events
// submitted and skipped. The whole body is decoded before the first submit,
// so a parse error anywhere (a corrupt trailing frame, a malformed line)
// rejects the request without having applied a prefix of it — clients can
// safely retry a 400 without double-counting. A binary body's frames are
// walked in place, each decoded into a pooled batch (1:1) that the refcounted
// broadcast submits without a copy per shard; once the pool's buffers have
// grown, binary ingestion allocates nothing. Duplicates are dropped by
// shifting each batch's surviving suffix to the front (fully-duplicate
// batches are released outright), so the pooled buffers keep their arrays.
func ingestSkip(ens *wsd.ShardedCounter, pool *stream.BatchPool, body []byte, skip int64) (accepted, duplicate int, err error) {
	total := 0
	if stream.IsBinary(body) {
		var pending []*stream.Batch
		release := func() {
			for _, b := range pending {
				b.Release()
			}
		}
		err := stream.EachFrame(body, func(payload []byte) (err error) {
			b := pool.Get()
			pending = append(pending, b)
			b.Events, err = stream.DecodeFramePayload(b.Events, payload)
			total += len(b.Events)
			return err
		})
		if err != nil {
			release()
			return 0, 0, err
		}
		remaining := skip
		kept := pending[:0]
		for _, b := range pending {
			switch n := int64(len(b.Events)); {
			case remaining >= n:
				remaining -= n
				duplicate += int(n)
				b.Release()
			case remaining > 0:
				copy(b.Events, b.Events[remaining:])
				b.Events = b.Events[:n-remaining]
				duplicate += int(remaining)
				remaining = 0
				kept = append(kept, b)
			default:
				kept = append(kept, b)
			}
		}
		pending = kept
		for i, b := range pending {
			if err := ens.SubmitPooled(b); err != nil {
				// Only Close can fail a submit; the service is shutting
				// down. SubmitPooled released b; drop the rest too.
				pending = pending[i+1:]
				release()
				return 0, 0, err
			}
		}
		return total - duplicate, duplicate, nil
	}
	evs, err := stream.Read(bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if skip > int64(len(evs)) {
		skip = int64(len(evs))
	}
	duplicate = int(skip)
	evs = evs[skip:]
	if len(evs) > 0 {
		if err := ens.SubmitBatch(evs); err != nil {
			return 0, duplicate, err
		}
	}
	return len(evs), duplicate, nil
}

// gather reads every served estimate from the ensemble's published values.
func (s *Server) gather() (*gathered, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vec := s.ens.EstimateVector()
	processed := s.ens.Processed()
	names := s.patternNames()
	values := make(map[string]float64, len(names))
	for i, p := range names {
		values[p] = vec[i]
	}
	m, win, halflife := s.cfg.M, s.cfg.Window, s.cfg.Halflife
	return &gathered{
		mode:     s.temporal,
		patterns: names,
		values:   values,
		all: map[string]any{
			"estimate":  vec[0],
			"estimates": values,
			"shards":    s.ens.Estimates(),
			"processed": processed,
			"pattern":   names[0],
			"patterns":  names,
			"m":         m,
			"window":    win,
			"halflife":  halflife,
		},
		one: func(pattern string, estimate float64) map[string]any {
			return map[string]any{"pattern": pattern, "estimate": estimate,
				"processed": processed, "m": m, "window": win, "halflife": halflife}
		},
	}, nil
}

// patternNames renders the served pattern set in estimator order.
func (s *Server) patternNames() []string {
	names := make([]string, len(s.patterns))
	for i, p := range s.patterns {
		names[i] = p.String()
	}
	return names
}

// flush serves POST /flush.
func (s *Server) flush() (any, error) {
	pos, err := s.Flush()
	if err != nil {
		return nil, err
	}
	return map[string]any{"flushed": true, "position": pos}, nil
}

// snapshot serves GET /snapshot.
func (s *Server) snapshot() (any, error) {
	blob, err := s.Snapshot()
	return json.RawMessage(blob), err
}

// restore serves POST /restore.
func (s *Server) restore(body []byte) (any, error) {
	shards, err := s.Restore(body)
	if err != nil {
		return nil, err
	}
	return map[string]any{"restored": true, "shards": shards}, nil
}

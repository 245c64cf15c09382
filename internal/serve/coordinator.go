package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/window"
)

// CoordinatorConfig describes the worker fleet a coordinator front end
// serves.
type CoordinatorConfig struct {
	// Cluster configures the fleet: worker URLs, combiner, quorum, timeouts.
	Cluster cluster.Config
	// MaxBodyBytes caps request bodies; 0 means 64 MiB.
	MaxBodyBytes int64
}

// Coordinator is the HTTP front end over a worker fleet: the same route table
// as the single-node Server, with ingest routed to the workers, estimates
// gathered and combined, checkpointing fanned out into one cluster blob, and
// /healthz reporting fleet quorum. Construct with NewCoordinator.
type Coordinator struct {
	cfg   CoordinatorConfig
	coord *cluster.Coordinator
}

// NewCoordinator validates the fleet configuration and returns a ready
// coordinator front end. The workers are not contacted; /healthz reports the
// gap until they come up.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	coord, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &Coordinator{cfg: cfg, coord: coord}, nil
}

// Cluster exposes the underlying coordinator (the serving front end adds
// only wire parsing), so a main can snapshot on shutdown or probe health
// directly.
func (c *Coordinator) Cluster() *cluster.Coordinator { return c.coord }

// Handler returns the HTTP handler: the shared route table over the fleet,
// plus POST /catchup, which only a coordinator serves.
func (c *Coordinator) Handler() http.Handler {
	return newHandler(c, c.cfg.MaxBodyBytes,
		route{"POST /catchup", handle(0, http.StatusBadRequest, noBody(c.catchUp))})
}

// catchUp triggers an explicit fleet catch-up against the write-ahead log:
// every worker is probed, re-aligned, and replayed to the log end. Success
// means the whole fleet is caught up, and the reply carries each log's end,
// one wals entry per routing slot (one in broadcast mode, one per partition
// in partitioned mode); an error wrapping cluster.ErrCatchUpIncomplete (502)
// means some worker still lags — the coordinator keeps retrying at each
// ingest — and any other error (400) means the coordinator runs without a
// log.
func (c *Coordinator) catchUp() (any, error) {
	if err := c.coord.CatchUp(); err != nil {
		return nil, err
	}
	logs := c.coord.Logs()
	marks := make([]cluster.WALMark, len(logs))
	for i, lg := range logs {
		marks[i] = cluster.WALMark{Position: lg.End(), Events: lg.Events()}
	}
	return map[string]any{"caught_up": true, "workers": c.coord.Workers(), "wals": marks}, nil
}

// ingest serves POST /ingest: the body is decoded whole, then routed, logged
// and sent to the workers. A body that fails to decode wraps
// cluster.ErrBadStream (400); fewer applying workers than the quorum wraps
// cluster.ErrNoQuorum (503); any other failure is a 502.
func (c *Coordinator) ingest(body []byte, _ http.Header) (any, error) {
	return c.coord.IngestBytes(body)
}

// gather reads the fleet's combined estimates: below quorum is a 503, a
// failed or non-uniform fleet a 502.
func (c *Coordinator) gather() (*gathered, error) {
	est, err := c.coord.Estimate()
	if err != nil {
		return nil, err
	}
	return &gathered{
		mode:     window.Spec{Window: est.Window, Halflife: est.Halflife},
		patterns: est.Patterns,
		values:   est.Estimates,
		all:      est,
		one: func(pattern string, estimate float64) map[string]any {
			return map[string]any{"pattern": pattern, "estimate": estimate,
				"processed": est.Processed, "workers": est.Workers, "gathered": est.Gathered,
				"quorum": est.Quorum, "degraded": est.Degraded, "window": est.Window, "halflife": est.Halflife}
		},
	}, nil
}

// flush serves POST /flush: the position barrier across the serving workers.
func (c *Coordinator) flush() (any, error) {
	if err := c.coord.Flush(); err != nil {
		return nil, err
	}
	return map[string]any{"flushed": true, "workers": c.coord.Workers()}, nil
}

// snapshot serves GET /snapshot: one cluster blob, or a 503 while the fleet
// cannot be checkpointed whole.
func (c *Coordinator) snapshot() (any, error) {
	blob, err := c.coord.Snapshot()
	return json.RawMessage(blob), err
}

// restore serves POST /restore. Validation failures (bad blob, wrong fleet
// shape) reject before any worker is touched — a 400. A partial fan-out means
// some workers swapped state and some did not: a 502 the operator retries
// until the fleet heals.
func (c *Coordinator) restore(body []byte) (any, error) {
	if err := c.coord.Restore(body); err != nil {
		return nil, err
	}
	return map[string]any{"restored": true, "workers": c.coord.Workers()}, nil
}

// health serves GET /healthz: the fleet report, ready while the read quorum
// holds.
func (c *Coordinator) health() (any, bool) {
	h := c.coord.Health()
	return h, h.HasQuorum
}

// getPolicy gathers the fleet's active policy (GET /policy on every serving
// worker, uniformity verified) and relays the first worker's reply.
func (c *Coordinator) getPolicy() (any, error) {
	return c.coord.PolicyStatus()
}

// putPolicy fans a policy artifact out to the whole fleet. A blob that fails
// artifact validation, or that every worker rejected, wraps
// cluster.ErrPolicyRejected: a 400, and no worker changed. A fleet that
// cannot take a uniform swap (workers lagging or down) is a 503 taken before
// any worker changed; a fan-out that swapped some workers but not all is a
// 502 wrapping cluster.ErrPartialSwap — the stragglers are marked
// inconsistent and a retry (or a cluster restore) heals.
func (c *Coordinator) putPolicy(body []byte) (any, error) {
	if err := c.coord.SwapPolicy(body); err != nil {
		return nil, err
	}
	return map[string]any{"swapped": true, "workers": c.coord.Workers()}, nil
}

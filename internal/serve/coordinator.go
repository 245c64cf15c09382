package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	wsd "repro"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/policy"
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

// Coordinator is the HTTP front end over a worker fleet: the same endpoint
// set as the single-node Server, with ingest routed to the workers,
// estimates gathered and combined, checkpointing fanned out into one cluster
// blob, and /healthz reporting fleet quorum. Construct with NewCoordinator.
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

// Handler returns the HTTP handler: the Server endpoint set in cluster mode.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", c.handleIngest)
	mux.HandleFunc("GET /estimate", c.handleEstimate)
	mux.HandleFunc("POST /flush", c.handleFlush)
	mux.HandleFunc("GET /snapshot", c.handleSnapshot)
	mux.HandleFunc("POST /restore", c.handleRestore)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("POST /catchup", c.handleCatchUp)
	mux.HandleFunc("GET /policy", c.handleClusterPolicyGet)
	mux.HandleFunc("PUT /policy", c.handleClusterPolicySwap)
	return mux
}

// handleClusterPolicyGet gathers the fleet's active policy (GET /policy on
// every serving worker, uniformity verified) and relays the first worker's
// reply.
func (c *Coordinator) handleClusterPolicyGet(w http.ResponseWriter, r *http.Request) {
	raw, err := c.coord.PolicyStatus()
	if err != nil {
		if errors.Is(err, cluster.ErrNoQuorum) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		} else {
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleClusterPolicySwap fans a policy artifact out to the whole fleet. A
// blob that fails artifact validation (or that every worker rejected) is a
// 400 and no worker changed; a fleet that cannot take a uniform swap (workers
// lagging or down) is a 503 taken before any worker changed; a fan-out that
// swapped some workers but not all is a 502 wrapping ErrPartialSwap — the
// stragglers are marked inconsistent and a retry (or a cluster restore)
// heals.
func (c *Coordinator) handleClusterPolicySwap(w http.ResponseWriter, r *http.Request) {
	raw, ok := c.readBody(w, r)
	if !ok {
		return
	}
	if _, err := policy.Decode(raw); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.coord.SwapPolicy(raw); err != nil {
		if errors.Is(err, cluster.ErrPartialSwap) {
			http.Error(w, err.Error(), http.StatusBadGateway)
		} else {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
		return
	}
	writeJSON(w, map[string]any{"swapped": true, "workers": c.coord.Workers()})
}

// handleCatchUp triggers an explicit fleet catch-up against the write-ahead
// log: every worker is probed, re-aligned, and replayed to the log end. 200
// means the whole fleet is caught up; 502 means some worker still lags (the
// body says which, and the coordinator keeps retrying at each ingest);
// 400 means the coordinator runs without a log.
func (c *Coordinator) handleCatchUp(w http.ResponseWriter, r *http.Request) {
	if err := c.coord.CatchUp(); err != nil {
		if errors.Is(err, cluster.ErrCatchUpIncomplete) {
			http.Error(w, err.Error(), http.StatusBadGateway)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	reply := map[string]any{
		"caught_up": true,
		"workers":   c.coord.Workers(),
	}
	if logs := c.coord.Logs(); logs != nil {
		// Partitioned mode: one position per partition log, fleet order.
		type mark struct {
			Position uint64 `json:"position"`
			Events   int64  `json:"events"`
		}
		marks := make([]mark, len(logs))
		for i, lg := range logs {
			marks[i] = mark{Position: lg.End(), Events: lg.Events()}
		}
		reply["partitions"] = marks
	} else {
		log := c.coord.Log()
		reply["position"] = log.End()
		reply["events"] = log.Events()
	}
	writeJSON(w, reply)
}

// readBody reads a whole capped request body, writing the HTTP error itself
// when reading fails.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		if isBodyTooLarge(err) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return raw, true
}

func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	raw, ok := c.readBody(w, r)
	if !ok {
		return
	}
	res, err := c.coord.IngestBytes(raw)
	if err != nil {
		switch {
		case errors.Is(err, cluster.ErrBadStream):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, cluster.ErrNoQuorum):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return
	}
	writeJSON(w, res)
}

func (c *Coordinator) handleEstimate(w http.ResponseWriter, r *http.Request) {
	// Parse the query before touching the fleet: an unknown parameter, a
	// malformed pattern name, or a malformed window/halflife is a 400 that
	// must not cost N worker round trips per request. (Whether a valid
	// pattern is served — and what temporal mode the fleet runs — is only
	// known after the gather.)
	q := r.URL.Query()
	asked, asserted, err := ParseEstimateQuery(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var queried *wsd.Pattern
	if name := q.Get("pattern"); name != "" {
		// Same resolution as the single-node endpoint: the query value goes
		// through the flag parser, so alias spellings work, and unknown or
		// unserved names are client errors.
		k, err := cli.ParsePattern(name)
		if err != nil {
			http.Error(w, fmt.Sprintf("serve: %v", err), http.StatusBadRequest)
			return
		}
		queried = &k
	}
	est, err := c.coord.Estimate()
	if err != nil {
		if errors.Is(err, cluster.ErrNoQuorum) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		} else {
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return
	}
	if asserted {
		serving := window.Spec{Window: est.Window, Halflife: est.Halflife}
		if asked != serving {
			http.Error(w, fmt.Sprintf("serve: this fleet serves %s estimates, query asked for %s", serving, asked), http.StatusBadRequest)
			return
		}
	}
	if queried != nil {
		k := *queried
		v, ok := est.Estimates[k.String()]
		if !ok {
			http.Error(w, fmt.Sprintf("serve: pattern %q is not served (served: %s)", k, est.Patterns), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]any{
			"pattern":   k.String(),
			"estimate":  v,
			"processed": est.Processed,
			"workers":   est.Workers,
			"gathered":  est.Gathered,
			"quorum":    est.Quorum,
			"degraded":  est.Degraded,
			"window":    est.Window,
			"halflife":  est.Halflife,
		})
		return
	}
	writeJSON(w, est)
}

func (c *Coordinator) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := c.coord.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]any{"flushed": true, "workers": c.coord.Workers()})
}

func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	blob, err := c.coord.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

func (c *Coordinator) handleRestore(w http.ResponseWriter, r *http.Request) {
	raw, ok := c.readBody(w, r)
	if !ok {
		return
	}
	if err := c.coord.Restore(raw); err != nil {
		// Validation failures (bad blob, wrong fleet shape) reject before any
		// worker is touched — a client error. A partial fan-out means some
		// workers swapped state and some did not: a gateway error the
		// operator retries until the fleet heals.
		if errors.Is(err, cluster.ErrPartialRestore) || errors.Is(err, cluster.ErrCatchUpIncomplete) {
			http.Error(w, err.Error(), http.StatusBadGateway)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	writeJSON(w, map[string]any{"restored": true, "workers": c.coord.Workers()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := c.coord.Health()
	if !h.HasQuorum {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(w, h)
		return
	}
	writeJSON(w, h)
}

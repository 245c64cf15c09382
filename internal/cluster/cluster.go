// Package cluster distributes the shard ensemble across worker nodes: a
// coordinator that routes event batches to N remote wsdserve workers —
// each itself a sharded counter — and serves scatter/gather reads by
// collecting the workers' estimates and combining them with the same
// unit-tested math (internal/combine) the in-process ensemble uses.
//
// The statistical argument is the one internal/shard already relies on, and
// it is indifferent to process boundaries: every worker ingests the complete
// stream with independently seeded randomness, so each worker estimate is an
// independent unbiased estimator of the same quantity. The mean of K worker
// estimates preserves unbiasedness and divides the variance by K; the
// median-of-means keeps sub-Gaussian concentration under the heavy right
// tail of inverse-probability estimates. A coordinator over K single-shard
// workers is therefore statistically interchangeable with one K-shard
// process — the cluster layer buys horizontal memory and CPU, not a
// different estimator.
//
// One ingest path serves every mode. Under one lock (so every worker sees
// its stream in one global order) each batch goes through four steps:
//
//   - Route: split the batch into shares, one per routing slot.
//   - Encode and log: encode each share once into wire frames, appending
//     each frame payload to the slot's write-ahead log as it joins the wire
//     body — so a logged frame and a delivered frame are the same bytes —
//     and every share is durable before any worker sees one.
//   - Stamped send: deliver each worker its share's body, stamped with the
//     share's stream position when it is logged (so duplicates and replays
//     are idempotent on the worker).
//   - Ack: a worker that provably applied its whole share is acknowledged
//     at the log end; one that did not is marked lagging when its share is
//     logged, inconsistent when it is not.
//
// Two configuration choices set the parameters of those steps:
//
//   - Routing (Config.Partitioned). Broadcast mode has one slot: every
//     worker gets the whole batch and estimates compose with Config.Combiner.
//     Partitioned mode has one slot per worker: each edge goes to the
//     owner(s) of its endpoints (internal/partition — a fixed vertex hash),
//     so the fleet's ingest scales with N. Each worker weighs every
//     contribution by the fraction of the completing edge's endpoints it
//     owns, and the coordinator divides the summed estimates (combine.Sum) by
//     the pattern's expected visibility partition.Beta, keeping the total
//     unbiased. A missing partition is a missing share of the count, not a
//     lost vote, so the quorum is pinned to the fleet size.
//   - Durability (Config.Log in broadcast mode, Config.Logs — one per
//     partition — in partitioned mode). Either way the coordinator keeps one
//     log per routing slot, and Logs and Health report them as one list in
//     slot order. Without a log, the share is not logged, the send is
//     unstamped, and a missed delivery is permanent.
//
// Consistency model. A worker is *consistent* while its state provably
// summarizes its stream: every share routed to it since the cluster's start
// (or its last successful cluster restore), applied in order. Without a log,
// a worker that misses a share — network error, crash, 5xx, a short apply —
// is marked inconsistent and excluded from ingest and reads, because an
// estimator over a prefix of the stream is not an unbiased estimator of the
// present graph; it rejoins only through Restore, which resets every worker
// to one cluster-wide snapshot. With a log, the same miss marks the worker
// *lagging*: its state is a correct prefix, so the coordinator heals it by
// replaying its log from its last ack — at the next submit (with backoff),
// on CatchUp, or after a Restore — and the estimators' determinism (the
// TRIEST-FD lineage is defined over the ordered stream) makes the healed
// worker bit-identical to one that never failed. Retention truncates each
// log below the minimum ack of its workers, so a lagging worker's tail is
// retained until it catches up. Only a worker whose reported position aligns
// with no logged frame boundary — restarted empty after retention passed its
// data, or fed out of band — is inconsistent and needs a snapshot Restore,
// after which the blob's recorded log positions let replay finish the job
// ("restore from blob + log replay").
//
// Reads tolerate transient unreachability: a consistent worker that fails
// one gather is skipped for that read (and stays consistent — its state is
// intact). Every read reports how many workers answered and whether the
// configured quorum was met, so a degraded broadcast fleet serves, visibly,
// from the survivors.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wsd "repro"

	"repro/internal/cli"
	"repro/internal/combine"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Config describes the worker fleet a coordinator fronts.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"; a bare
	// "host:port" gets the http scheme). At least one is required.
	Workers []string
	// Combiner folds the worker estimates (default combine.Mean; use
	// combine.MedianOfMeans for tail robustness).
	Combiner combine.Func
	// Quorum is the minimum number of workers that must answer for a read to
	// be served; values < 1 default to a majority (workers/2 + 1). Ingest
	// applies the same bar: a submit that lands on fewer than Quorum
	// workers is reported as an error (the events that did land stay
	// applied — single-pass streams cannot be unapplied).
	Quorum int
	// Timeout bounds each worker request (default 10s).
	Timeout time.Duration
	// Client overrides the HTTP client used for worker requests. When nil, a
	// client with Timeout applied is built; when set, Timeout is ignored and
	// the supplied client's own limits govern.
	Client *http.Client
	// Log, when non-nil, is the write-ahead log every batch is appended to
	// before fan-out, enabling per-worker catch-up by replay (see the
	// durability notes in the package comment). The coordinator takes
	// ownership: position tracking, retention truncation, and snapshot
	// positioning all run through it. Broadcast mode only; partitioned
	// coordinators log per partition through Logs.
	Log *wal.Log
	// Partitioned switches the coordinator from broadcast to partitioned
	// ingest: edges are routed to the owners of their endpoints, worker i
	// serving partition i of the fleet, and estimates compose by visibility-
	// corrected summation (see the package comment). Combiner must be nil
	// (the mode owns the math) and Quorum must be unset or the fleet size:
	// every partition holds an irreplaceable share of the count. Workers
	// must be configured with the matching serve.Config partition slots.
	Partitioned bool
	// Logs, in partitioned mode, are the per-partition write-ahead logs,
	// index-aligned with Workers (log i records worker i's substream). Nil
	// means no durability — a failed delivery marks its worker inconsistent,
	// as in no-log broadcast mode. When set, every entry must be non-nil and
	// the length must equal the worker count.
	Logs []*wal.Log
}

// ErrBadStream wraps an ingest body the coordinator could not decode: a
// client error, not a cluster failure. The body is decoded whole before any
// worker sees it, so nothing was applied and the cluster stays consistent.
var ErrBadStream = errors.New("cluster: stream body rejected")

// ErrNoQuorum is returned when fewer consistent workers than the configured
// quorum are available to serve a request.
var ErrNoQuorum = errors.New("cluster: below worker quorum")

// ErrPartialRestore wraps a restore fan-out that failed after validation:
// some workers swapped to the snapshot state while others kept theirs. The
// failed workers are marked inconsistent; retry the restore to heal.
var ErrPartialRestore = errors.New("cluster: restore incomplete")

// ErrPartialSwap wraps a policy swap that failed after validation: some
// workers applied the new weight function while others kept the old one, so
// the fleet's estimates no longer share one weighting. The failed workers are
// marked inconsistent; heal with a cluster Restore or a retried swap.
var ErrPartialSwap = errors.New("cluster: policy swap incomplete")

// ErrPolicyRejected wraps a policy swap refused whole: the artifact failed
// local validation, or every worker validated and rejected it (e.g. its
// pattern does not match the deployment). No worker changed, so the fleet
// still runs one weight function; the error is the client's.
var ErrPolicyRejected = errors.New("cluster: policy rejected")

// ErrCatchUpIncomplete wraps a CatchUp (or post-restore replay) that left
// some worker behind the log end: unreachable, mid-replay failure, or
// inconsistent. Lagging workers are retried automatically at the next
// submit; an inconsistent worker needs a snapshot Restore.
var ErrCatchUpIncomplete = errors.New("cluster: catch-up incomplete")

// catchUpBackoff spaces automatic catch-up attempts per worker, so a worker
// that is down does not cost every submit a probe round trip.
const catchUpBackoff = 2 * time.Second

// workerRef is one worker endpoint plus its consistency and catch-up state.
type workerRef struct {
	url string
	// idx is the worker's fleet slot — in partitioned mode, the partition it
	// owns and the index of its write-ahead log.
	idx int
	// inconsistent is set when the worker misses an unlogged share or when
	// its reported position aligns with no logged frame; a successful cluster
	// Restore — or, in log mode, a probe that re-aligns — clears it.
	inconsistent atomic.Bool
	// lagging (log mode only) is set when the worker misses a share whose
	// frames are on its log: its state is a stream prefix and replay heals it.
	lagging atomic.Bool
	// acked/ackedEvents are the newest log position (frame index / cumulative
	// events) the worker has provably applied. The fleet minimum of acked
	// anchors retention.
	acked       atomic.Uint64
	ackedEvents atomic.Int64
	// lastCatchUp is the unix-nano time of the last catch-up attempt,
	// implementing the submit-path backoff.
	lastCatchUp atomic.Int64
}

// Coordinator routes ingested batches to the workers and gathers their
// estimates into one combined read. Construct with New; the zero value is
// not usable. Safe for concurrent use.
type Coordinator struct {
	workers []*workerRef
	comb    combine.Func
	quorum  int
	client  *http.Client

	// mu guards the ingest/read side against Restore the same way
	// serve.Server does: requests hold the read lock, Restore the write
	// lock, so a restore never interleaves with a submit.
	mu sync.RWMutex

	// bcastMu serializes submits, the cross-process analogue of the shard
	// ensemble holding its lock across the per-shard sends: without it, two
	// concurrent ingests could land on different workers in different
	// orders, and an insert/delete pair applied in opposite orders leaves
	// workers summarizing different graphs while still marked consistent.
	// Snapshot also takes it, so a cluster blob can never interleave with a
	// submit and capture workers at different stream positions. It guards
	// the reused shares and replayBuf too.
	bcastMu sync.Mutex

	// partitioned selects the routing: one slot for the whole fleet, or one
	// per worker. wals holds one write-ahead log per slot (nil without
	// durability): Config.Log in broadcast mode, Config.Logs in partitioned
	// mode. shares are the reused per-slot routing and encode buffers, and
	// replayBuf the reused catch-up body buffer.
	partitioned bool
	wals        []*wal.Log
	shares      []share
	replayBuf   []byte

	// decMu serializes the reused ingest-body decode buffer.
	decMu  sync.Mutex
	decBuf []stream.Event
}

// share is one routing slot's part of the batch being submitted: its
// events, the slot's write-ahead log (nil without durability), their reused
// wire body and frame-payload scratch, the stream position of its first
// event on the log (-1 when the slot has no log), and the log end after the
// append.
type share struct {
	evs           []stream.Event
	log           *wal.Log
	body, payload []byte
	stamp         int64
	end           WALMark
}

// encode canonicalizes the share into one binary wire body — the stream
// header, then frames of at most stream.MaxFrameEvents events — and logs
// each frame payload as it joins the body, so a logged frame and a delivered
// frame are the same bytes by construction. After an append error the body
// is incomplete and must not be sent; the frames logged before the failure
// stay on the log.
func (sh *share) encode() error {
	sh.body = stream.AppendBinaryHeader(sh.body[:0])
	sh.stamp = -1
	if sh.log != nil {
		sh.stamp = sh.log.Events()
	}
	for lo := 0; lo < len(sh.evs); lo += stream.MaxFrameEvents {
		sh.payload = stream.AppendFramePayload(sh.payload[:0], sh.evs[lo:min(lo+stream.MaxFrameEvents, len(sh.evs))])
		if sh.log != nil {
			if _, err := sh.log.Append(sh.payload); err != nil {
				return err
			}
		}
		sh.body = binary.AppendUvarint(sh.body, uint64(len(sh.payload)))
		sh.body = append(sh.body, sh.payload...)
	}
	if sh.log != nil {
		sh.end = WALMark{Position: sh.log.End(), Events: sh.log.Events()}
	}
	return nil
}

// New validates the worker list and returns a coordinator. The workers are
// not contacted: a coordinator can start before its fleet and report the gap
// through Health.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	refs := make([]*workerRef, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		u := NormalizeWorkerURL(w)
		if u == "" {
			return nil, fmt.Errorf("cluster: empty worker address in %v", cfg.Workers)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: worker %s listed twice", u)
		}
		seen[u] = true
		refs = append(refs, &workerRef{url: u, idx: len(refs)})
	}
	comb := cfg.Combiner
	if comb == nil {
		comb = combine.Mean
	}
	quorum := cfg.Quorum
	if quorum < 1 {
		quorum = len(refs)/2 + 1
	}
	if quorum > len(refs) {
		return nil, fmt.Errorf("cluster: quorum %d exceeds the %d configured workers", quorum, len(refs))
	}
	if cfg.Partitioned {
		// The mode owns the read math: estimates are ownership-weighted
		// shares, so summation (with the Beta correction at read time) is the
		// only sound composition, and every partition must answer — averaging
		// or reading around a missing partition would silently bias the count.
		if cfg.Combiner != nil {
			return nil, fmt.Errorf("cluster: partitioned mode composes estimates by visibility-corrected summation; do not set Combiner")
		}
		comb = combine.Sum
		if cfg.Quorum != 0 && cfg.Quorum != len(refs) {
			return nil, fmt.Errorf("cluster: partitioned reads need the whole fleet (every partition holds an irreplaceable share); quorum %d cannot apply — leave Quorum unset", cfg.Quorum)
		}
		quorum = len(refs)
		if cfg.Log != nil {
			return nil, fmt.Errorf("cluster: partitioned mode logs per partition; set Logs (one per worker), not Log")
		}
		if cfg.Logs != nil {
			if len(cfg.Logs) != len(refs) {
				return nil, fmt.Errorf("cluster: %d write-ahead logs for %d workers; Logs must be index-aligned with Workers", len(cfg.Logs), len(refs))
			}
			for i, lg := range cfg.Logs {
				if lg == nil {
					return nil, fmt.Errorf("cluster: Logs[%d] is nil; every partition needs its own log (or none)", i)
				}
			}
		}
	} else if cfg.Logs != nil {
		return nil, fmt.Errorf("cluster: Logs is for partitioned mode; broadcast coordinators take one Log")
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	slots, wals := 1, cfg.Logs
	if cfg.Partitioned {
		slots = len(refs)
	} else if cfg.Log != nil {
		wals = []*wal.Log{cfg.Log}
	}
	shares := make([]share, slots)
	for i, lg := range wals {
		shares[i].log = lg
	}
	return &Coordinator{workers: refs, comb: comb, quorum: quorum, client: client,
		partitioned: cfg.Partitioned, wals: wals, shares: shares}, nil
}

// slot is the routing slot worker w receives its share from: the one fleet
// slot in broadcast mode, its partition otherwise.
func (c *Coordinator) slot(w *workerRef) int {
	if c.partitioned {
		return w.idx
	}
	return 0
}

// walFor resolves the write-ahead log that records worker w's stream (nil
// without durability): the shared log in broadcast mode, the worker's own
// partition log otherwise.
func (c *Coordinator) walFor(w *workerRef) *wal.Log {
	if c.wals == nil {
		return nil
	}
	return c.wals[c.slot(w)]
}

// NormalizeWorkerURL canonicalizes a worker address: trims whitespace and
// trailing slashes (a leftover slash would turn every request path into
// //ingest, which the worker mux redirects and breaks), and defaults the
// scheme to http. Empty input returns "".
func NormalizeWorkerURL(s string) string {
	u := strings.TrimSpace(s)
	u = strings.TrimRight(u, "/")
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Workers returns the configured fleet size.
func (c *Coordinator) Workers() int { return len(c.workers) }

// Quorum returns the minimum worker count required to serve.
func (c *Coordinator) Quorum() int { return c.quorum }

// eligible returns the workers currently eligible for delivery and gather:
// consistent and (in log mode) not lagging — a lagging worker's estimate
// summarizes a stream prefix and must not enter a combined read until replay
// catches it up.
func (c *Coordinator) eligible() []*workerRef {
	out := make([]*workerRef, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.inconsistent.Load() && !w.lagging.Load() {
			out = append(out, w)
		}
	}
	return out
}

// fanout runs fn once per worker concurrently and returns the per-worker
// errors (nil entries for successes), indexed like workers.
func fanout(workers []*workerRef, fn func(i int, w *workerRef) error) []error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *workerRef) {
			defer wg.Done()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	return errs
}

// statusError is a non-2xx worker reply; Client reports whether it was a
// 4xx, i.e. the worker validated and rejected the request without applying
// any of it.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(e.body))
}

func (e *statusError) client() bool { return e.code >= 400 && e.code < 500 }

// post sends body to worker path and decodes a JSON reply into out (when
// non-nil).
func (c *Coordinator) post(w *workerRef, path string, body []byte, out any) error {
	return c.send(http.MethodPost, w, path, body, -1, out)
}

// put sends body to worker path with the PUT method (replacement semantics:
// the policy swap) and decodes a JSON reply into out (when non-nil).
func (c *Coordinator) put(w *workerRef, path string, body []byte, out any) error {
	return c.send(http.MethodPut, w, path, body, -1, out)
}

// send issues one worker request with an optional stream-position stamp (pos
// >= 0): the header declares the absolute position of the body's first
// event, making the delivery idempotent on the worker — a duplicate (a replay
// racing the original request, or a retry of a request that applied but
// whose response was lost) is skipped and reported back instead of
// double-applied.
func (c *Coordinator) send(method string, w *workerRef, path string, body []byte, pos int64, out any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if pos >= 0 {
		req.Header.Set(stream.PosHeader, strconv.FormatInt(pos, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: string(raw)}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("bad reply: %w", err)
		}
	}
	return nil
}

// get fetches worker path and returns the raw body.
func (c *Coordinator) get(w *workerRef, path string) ([]byte, error) {
	resp, err := c.client.Get(w.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: string(raw)}
	}
	return raw, nil
}

// IngestResult reports how a submit landed.
type IngestResult struct {
	// Accepted is the batch's event count; every applying worker applied its
	// whole share of it.
	Accepted int `json:"accepted"`
	// Applied is how many workers applied their share of the batch (in
	// partitioned mode possibly an empty one).
	Applied int `json:"applied"`
	// Workers is the configured fleet size.
	Workers int `json:"workers"`
}

// IngestBytes decodes one request body — text or binary stream format, as
// accepted by the workers' /ingest — and submits its events. The body is
// decoded whole before any worker sees it: a parse error anywhere rejects it
// with an error wrapping ErrBadStream, exactly the workers' own
// all-or-nothing validation, without N wasted round trips. If fewer than the
// quorum applied, the error wraps ErrNoQuorum.
func (c *Coordinator) IngestBytes(raw []byte) (IngestResult, error) {
	c.decMu.Lock()
	defer c.decMu.Unlock()
	evs, err := c.decodeBody(raw)
	if err != nil {
		return IngestResult{Workers: len(c.workers)}, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	return c.submit(evs)
}

// decodeBody parses an ingest body (text or binary, sniffed like the
// workers' /ingest) into the reused decode buffer; caller holds decMu.
func (c *Coordinator) decodeBody(raw []byte) ([]stream.Event, error) {
	if !stream.IsBinary(raw) {
		return stream.Read(bytes.NewReader(raw))
	}
	var err error
	c.decBuf, err = stream.DecodeBinary(c.decBuf[:0], raw)
	return c.decBuf, err
}

// SubmitBatch submits one event batch, the programmatic equivalent of
// POSTing it to the coordinator's /ingest. The encode buffers are reused
// across calls, so steady-state submission allocates only what the HTTP
// client needs.
func (c *Coordinator) SubmitBatch(evs []stream.Event) error {
	if len(evs) == 0 {
		return nil
	}
	_, err := c.submit(evs)
	return err
}

// submit is the one ingest path: route → log → stamped send → ack (see the
// package comment). It holds the read lock and bcastMu throughout, so every
// worker applies its shares in one global order and snapshots never tear.
func (c *Coordinator) submit(evs []stream.Event) (IngestResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	res := IngestResult{Accepted: len(evs), Workers: len(c.workers)}
	// Heal first: a lagging worker past its backoff rejoins before this
	// batch, so one missed delivery costs one gap, not permanent exclusion.
	// (Only a worker with a log ever lags.)
	c.healLagging()
	live := c.eligible()
	if len(live) < c.quorum {
		return res, fmt.Errorf("%w: %d serving of %d (need %d)", ErrNoQuorum, len(live), len(c.workers), c.quorum)
	}
	c.route(evs)
	// Durable before delivered: every share is encoded and logged before any
	// worker sees one. The stamp is the log position before the share: every
	// delivery of these frames — this send, a catch-up replay, or a duplicate
	// of either — declares the same position, so a worker applies the events
	// exactly once however many copies reach it.
	for i := range c.shares {
		if err := c.shares[i].encode(); err != nil {
			// Earlier slots' logs hold their shares but no worker has seen
			// them: mark those workers lagging so replay delivers the durable
			// tail. This slot's log may hold part of its share too — the
			// frames before a failed later frame, or the whole frame when the
			// segment rotation after its write failed. Its workers are not
			// marked: the next stamped send finds the gap and replay delivers
			// those frames, so a client retry of this batch logs them twice.
			for _, w := range live {
				if j := c.slot(w); j < i && len(c.shares[j].evs) > 0 {
					w.lagging.Store(true)
				}
			}
			return res, fmt.Errorf("cluster: write-ahead log %d append: %w", i, err)
		}
	}
	errs := fanout(live, func(_ int, w *workerRef) error {
		sh := &c.shares[c.slot(w)]
		if len(sh.evs) == 0 {
			return nil // no share this batch; the worker's position is unchanged
		}
		var reply struct {
			Accepted  int `json:"accepted"`
			Duplicate int `json:"duplicate"`
		}
		if err := c.send(http.MethodPost, w, "/ingest", sh.body, sh.stamp, &reply); err != nil {
			return err
		}
		// Duplicates count as covered: the worker already holds those events
		// (an earlier delivery applied but its response was lost). Anything
		// short of the whole share leaves the worker out of step.
		if reply.Accepted+reply.Duplicate != len(sh.evs) {
			return fmt.Errorf("applied %d of %d events (%d duplicate)", reply.Accepted, len(sh.evs), reply.Duplicate)
		}
		return nil
	})
	var firstErr error
	for i, err := range errs {
		w := live[i]
		switch {
		case err == nil:
			res.Applied++
			if c.wals != nil {
				end := c.shares[c.slot(w)].end
				w.acked.Store(end.Position)
				w.ackedEvents.Store(end.Events)
			}
			continue
		case c.wals != nil:
			// The body is canonical — this coordinator encoded it — so a
			// rejection is never a bad stream: the worker is out of step, and
			// because its share is on the log, replay heals it.
			w.lagging.Store(true)
			w.lastCatchUp.Store(time.Now().UnixNano())
		default:
			// Without a log a missed share is unrecoverable: the worker's
			// state no longer provably covers its stream.
			w.inconsistent.Store(true)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("worker %s: %w", w.url, err)
		}
	}
	c.truncateToMinAck()
	if res.Applied < c.quorum {
		return res, fmt.Errorf("%w: %d of %d workers applied (need %d): %v", ErrNoQuorum, res.Applied, len(c.workers), c.quorum, firstErr)
	}
	return res, nil
}

// route splits a batch into the per-slot shares; bcastMu held. Broadcast
// mode's one slot holds the whole batch (aliased, not copied). Partitioned
// slot i holds the events with an endpoint partition i owns, in stream order;
// a two-owner edge goes to both owners, each weighting its contributions by
// its owned-endpoint fraction (serve.Config's partition slot), so the fleet
// counts every completing edge with total weight one.
func (c *Coordinator) route(evs []stream.Event) {
	if !c.partitioned {
		c.shares[0].evs = evs
		return
	}
	for i := range c.shares {
		c.shares[i].evs = c.shares[i].evs[:0]
	}
	for _, ev := range evs {
		a, b := partition.Owners(ev.Edge, len(c.shares))
		c.shares[a].evs = append(c.shares[a].evs, ev)
		if b != a {
			c.shares[b].evs = append(c.shares[b].evs, ev)
		}
	}
}

// truncateToMinAck retires, on every log, the sealed segments all of that
// log's workers have passed; bcastMu held. Every worker's ack — lagging and
// inconsistent included — pins retention: a lagging worker's replay tail must
// be retained until it catches up, and an inconsistent worker's stale ack
// still brackets where a recent snapshot may sit. Only Restore (which
// re-seeds every ack from the blob's position) moves an irrecoverably behind
// worker forward.
//
// When *none* of a log's workers is consistent, its minimum ack is a minimum
// over stale bookmarks only — positions no live state backs. Acks can sit
// above the last truncation point without any consistent state behind them
// (a Restore seeds and replays acks without truncating), so truncating to
// that minimum could retire exactly the tail the healing snapshot restore
// needs to replay ("restore from blob + tail"). Such a log therefore pins
// retention outright: no truncation until a restore brings a worker back. A
// partition log answers to its one worker, so it is truncated to that
// worker's ack, or not at all while the worker is inconsistent. Truncation
// failures are left for the next attempt.
func (c *Coordinator) truncateToMinAck() {
	for i, lg := range c.wals {
		minAck, anyConsistent := uint64(math.MaxUint64), false
		for _, w := range c.workers {
			if c.slot(w) == i {
				minAck = min(minAck, w.acked.Load())
				anyConsistent = anyConsistent || !w.inconsistent.Load()
			}
		}
		if anyConsistent {
			lg.TruncateBefore(minAck)
		}
	}
}

// SubmitPooled submits a pooled batch (the zero-copy ingest currency) and
// releases it.
func (c *Coordinator) SubmitPooled(b *stream.Batch) error {
	err := c.SubmitBatch(b.Events)
	b.Release()
	return err
}

// errStopChunk is the internal sentinel replayTo uses to cut a replay body
// at its size bound.
var errStopChunk = errors.New("cluster: replay chunk full")

// healLagging attempts catch-up on lagging workers past their backoff;
// bcastMu held. (CatchUp is the forced variant: it probes every worker.)
func (c *Coordinator) healLagging() {
	now := time.Now().UnixNano()
	for _, w := range c.workers {
		if w.lagging.Load() && !w.inconsistent.Load() && now-w.lastCatchUp.Load() >= int64(catchUpBackoff) {
			c.catchUpWorker(w)
		}
	}
}

// catchUpWorker heals one worker by log replay; bcastMu held. It probes the
// worker's absolute stream position, aligns it to a logged frame boundary,
// and replays the tail above it. Success clears lagging (and inconsistent);
// a probe or replay failure leaves the worker lagging for the next attempt;
// a position that aligns with no retained frame marks it inconsistent — only
// a snapshot restore can bridge that gap.
func (c *Coordinator) catchUpWorker(w *workerRef) error {
	lg := c.walFor(w)
	w.lastCatchUp.Store(time.Now().UnixNano())
	raw, err := c.get(w, "/healthz")
	if err != nil {
		w.lagging.Store(true)
		return fmt.Errorf("worker %s: probe: %w", w.url, err)
	}
	var probe struct {
		Position int64 `json:"position"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		w.lagging.Store(true)
		return fmt.Errorf("worker %s: probe: %w", w.url, err)
	}
	pos, ok := lg.PosForEvents(probe.Position)
	if !ok {
		w.inconsistent.Store(true)
		if probe.Position < lg.BaseEvents() {
			return fmt.Errorf("worker %s is at event %d but retention begins at event %d (%v); restore a cluster snapshot to heal", w.url, probe.Position, lg.BaseEvents(), wal.ErrTruncated)
		}
		return fmt.Errorf("worker %s reports position %d, which aligns with no logged frame boundary; restore a cluster snapshot to heal", w.url, probe.Position)
	}
	// Alignment certifies the worker's state as a log prefix (the fleet only
	// ever receives canonical logged frames), so it is healable from here.
	w.inconsistent.Store(false)
	w.acked.Store(pos)
	w.ackedEvents.Store(probe.Position)
	if err := c.replayTo(w); err != nil {
		w.lagging.Store(true)
		return fmt.Errorf("worker %s: replay: %w", w.url, err)
	}
	w.lagging.Store(false)
	return nil
}

// replayTo streams the log tail above the worker's ack as chunked binary
// /ingest bodies — stored frame payloads copied verbatim behind a stream
// header, so the worker applies exactly the frames (and frame boundaries) the
// live fleet did. Every chunk is stamped with the worker's acknowledged event
// count (the absolute position of the chunk's first event), so a replay that
// races a duplicate of an earlier delivery is skipped, not double-applied;
// events the worker already held come back in the reply's duplicate count and
// still count as covered. The worker's ack advances per applied chunk;
// bcastMu held.
func (c *Coordinator) replayTo(w *workerRef) error {
	const maxReplayBody = 4 << 20
	lg := c.walFor(w)
	for {
		start := w.acked.Load()
		if start >= lg.End() {
			return nil
		}
		startEvents := w.ackedEvents.Load()
		body := stream.AppendBinaryHeader(c.replayBuf[:0])
		var (
			chunkEnd uint64
			total    int
		)
		err := lg.ReplayPayloads(start, func(pos uint64, events int, payload []byte) error {
			body = binary.AppendUvarint(body, uint64(len(payload)))
			body = append(body, payload...)
			chunkEnd = pos
			total += events
			if len(body) >= maxReplayBody {
				return errStopChunk
			}
			return nil
		})
		c.replayBuf = body[:0]
		if err != nil && !errors.Is(err, errStopChunk) {
			return err
		}
		if chunkEnd == 0 || chunkEnd <= start {
			return nil // nothing above start survived into this chunk
		}
		var reply struct {
			Accepted  int `json:"accepted"`
			Duplicate int `json:"duplicate"`
		}
		if err := c.send(http.MethodPost, w, "/ingest", body, startEvents, &reply); err != nil {
			return err
		}
		if reply.Accepted+reply.Duplicate != total {
			return fmt.Errorf("accepted %d of %d replayed events (%d duplicate)", reply.Accepted, total, reply.Duplicate)
		}
		ev, ok := lg.EventsAt(chunkEnd)
		if !ok {
			return fmt.Errorf("%w: position %d left the retained range during replay", wal.ErrTruncated, chunkEnd)
		}
		w.acked.Store(chunkEnd)
		w.ackedEvents.Store(ev)
	}
}

// CatchUp probes every worker, re-aligns its acknowledged position from its
// reported absolute position, and replays whatever tail it is missing — the
// explicit healing entry point (POST /catchup, coordinator boot, after
// Restore). It returns nil only when the whole fleet is caught up to the log
// end; otherwise the error wraps ErrCatchUpIncomplete and the stragglers
// stay marked for automatic retry.
func (c *Coordinator) CatchUp() error {
	if c.wals == nil {
		return fmt.Errorf("cluster: no write-ahead log configured (start the coordinator with -wal-dir)")
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	var firstErr error
	for _, w := range c.workers {
		if err := c.catchUpWorker(w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.truncateToMinAck()
	if firstErr != nil {
		return fmt.Errorf("%w: %v", ErrCatchUpIncomplete, firstErr)
	}
	return nil
}

// Logs returns the write-ahead logs, one per routing slot: the one fleet log
// in broadcast mode, one per partition (fleet order) in partitioned mode, and
// nil without durability.
func (c *Coordinator) Logs() []*wal.Log { return c.wals }

// Estimate is a combined scatter/gather read over the worker fleet.
type Estimate struct {
	// Estimate is the combined primary-pattern estimate.
	Estimate float64 `json:"estimate"`
	// Estimates maps every served pattern to its combined estimate.
	Estimates map[string]float64 `json:"estimates"`
	// Patterns is the served pattern set in estimator order.
	Patterns []string `json:"patterns"`
	// WorkerEstimates is each gathered worker's primary estimate, in fleet
	// order of the workers that answered — the spread is an empirical
	// variance check, exactly like the single-process /estimate "shards"
	// field.
	WorkerEstimates []float64 `json:"worker_estimates"`
	// Processed is the minimum processed-event count across the gathered
	// workers.
	Processed int64 `json:"processed"`
	// Workers is the configured fleet size; Gathered is how many answered
	// this read.
	Workers  int `json:"workers"`
	Gathered int `json:"gathered"`
	// Quorum is the configured read quorum; Degraded is true when any
	// configured worker did not contribute.
	Quorum   int  `json:"quorum"`
	Degraded bool `json:"degraded"`
	// Window and Halflife report the fleet's temporal serving mode (zero for
	// whole-stream), verified uniform across the gathered workers — a fleet
	// mixing windowed and whole-stream workers would combine estimates of
	// different quantities.
	Window   int64   `json:"window"`
	Halflife float64 `json:"halflife"`
}

// workerEstimate is the slice of a worker's /estimate reply the gather
// needs.
type workerEstimate struct {
	Estimate  float64            `json:"estimate"`
	Estimates map[string]float64 `json:"estimates"`
	Patterns  []string           `json:"patterns"`
	Processed int64              `json:"processed"`
	Window    int64              `json:"window"`
	Halflife  float64            `json:"halflife"`
}

// Estimate gathers every consistent worker's estimates and combines them per
// pattern with the coordinator's combiner. Consistent workers that fail the
// gather are skipped (and stay consistent — reads do not mutate state); the
// reply reports how many answered. Fewer answers than the quorum is an
// ErrNoQuorum error. Workers serving different pattern sets (or different
// estimate-vector widths) are a deployment error and fail the read.
func (c *Coordinator) Estimate() (*Estimate, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := c.eligible()
	replies := make([]*workerEstimate, len(live))
	fanout(live, func(i int, w *workerRef) error {
		raw, err := c.get(w, "/estimate")
		if err != nil {
			return err
		}
		var we workerEstimate
		if err := json.Unmarshal(raw, &we); err != nil {
			return err
		}
		replies[i] = &we
		return nil
	})
	var gathered []*workerEstimate
	for _, r := range replies {
		if r != nil {
			gathered = append(gathered, r)
		}
	}
	out := &Estimate{
		Workers:  len(c.workers),
		Gathered: len(gathered),
		Quorum:   c.quorum,
		Degraded: len(gathered) < len(c.workers),
	}
	if len(gathered) < c.quorum {
		return out, fmt.Errorf("%w: gathered %d of %d workers (need %d)", ErrNoQuorum, len(gathered), len(c.workers), c.quorum)
	}
	patterns := gathered[0].Patterns
	if len(patterns) == 0 {
		// A reply with no pattern list would combine into a width-0 vector;
		// the endpoint is answering JSON but is not a (current) wsdserve
		// worker — a deployment error, reported instead of served.
		return out, fmt.Errorf("cluster: worker reply carries no pattern estimates; is every -workers entry a wsdserve worker?")
	}
	vectors := make([][]float64, len(gathered))
	out.Processed = gathered[0].Processed
	out.Window, out.Halflife = gathered[0].Window, gathered[0].Halflife
	if c.partitioned {
		out.Processed = 0
	}
	for i, g := range gathered {
		if !slices.Equal(g.Patterns, patterns) {
			return out, fmt.Errorf("cluster: workers serve different pattern sets (%v vs %v); the fleet must be configured uniformly", patterns, g.Patterns)
		}
		if g.Window != out.Window || g.Halflife != out.Halflife {
			// A window/halflife split means the workers are estimating
			// different quantities; combining them would be silently wrong.
			return out, fmt.Errorf("cluster: workers serve different temporal modes (window=%d halflife=%v vs window=%d halflife=%v); the fleet must be configured uniformly",
				out.Window, out.Halflife, g.Window, g.Halflife)
		}
		vec := make([]float64, 0, len(patterns))
		for _, p := range patterns {
			v, ok := g.Estimates[p]
			if !ok {
				return out, fmt.Errorf("cluster: worker reply missing estimate for pattern %s", p)
			}
			vec = append(vec, v)
		}
		vectors[i] = vec
		out.WorkerEstimates = append(out.WorkerEstimates, g.Estimate)
		if c.partitioned {
			// The fleet splits the stream, so fleet progress is the sum of the
			// partitions' positions. (A two-owner edge is delivered to both
			// owners and counted by each, so this can exceed the client-side
			// event count — it measures deliveries, the unit acks and replay
			// use, not unique edges.)
			out.Processed += g.Processed
		} else if g.Processed < out.Processed {
			out.Processed = g.Processed
		}
	}
	combined, err := combine.Vectors(vectors, c.comb)
	if err != nil {
		return out, fmt.Errorf("cluster: %w", err)
	}
	if c.partitioned {
		// The summed per-pattern estimates total the ownership-weighted shares
		// of the pattern instances each partition can see; dividing by the
		// expected visibility Beta (a pure function of pattern and fleet size)
		// restores unbiasedness. See internal/partition for the derivation.
		for i, p := range patterns {
			kind, err := cli.ParsePattern(p)
			if err != nil {
				return out, fmt.Errorf("cluster: worker reports pattern %q: %w", p, err)
			}
			combined[i] /= partition.Beta(kind, len(c.workers))
		}
	}
	out.Patterns = patterns
	out.Estimate = combined[0]
	out.Estimates = make(map[string]float64, len(patterns))
	for i, p := range patterns {
		out.Estimates[p] = combined[i]
	}
	return out, nil
}

// Snapshot is the serialized state of the whole cluster: one worker ensemble
// snapshot per worker, in fleet order. ClusterVersion guards the format; the
// field name is distinct from the per-process snapshots' "version" so the
// facade and the workers can recognize (and refuse) a cluster blob handed to
// a single-process restore.
type Snapshot struct {
	ClusterVersion int               `json:"cluster_version"`
	Workers        []json.RawMessage `json:"workers"`
	// WAL, present on snapshots taken by a log-mode coordinator, records the
	// log position the blob describes: restoring it re-seeds every worker's
	// acknowledged position there, and replaying the log above it brings the
	// fleet to the present — the "restore from blob + log replay" guarantee.
	WAL *WALMark `json:"wal,omitempty"`
	// Partitioned marks a blob taken by a partitioned coordinator. Worker i's
	// blob holds partition i's sample, which describes a share of the graph
	// rather than all of it, so a partitioned blob restores only onto a
	// partitioned coordinator of the same fleet size (and vice versa).
	Partitioned bool `json:"partitioned,omitempty"`
	// WALs, present on snapshots taken by a partitioned coordinator with
	// per-partition logs, records each partition log's position at the blob —
	// the per-partition analogue of WAL, with the same restore-then-replay
	// guarantee running independently per partition.
	WALs []WALMark `json:"wals,omitempty"`
}

// WALMark is a stream position as the write-ahead log measures it: a frame
// index and the cumulative event count through it.
type WALMark struct {
	Position uint64 `json:"position"`
	Events   int64  `json:"events"`
}

// marks returns the per-slot log positions the blob records (nil when it
// records none): WAL as the one fleet slot's, or WALs as the partitions'.
func (s *Snapshot) marks() []WALMark {
	if s.Partitioned {
		return s.WALs
	}
	if s.WAL == nil {
		return nil
	}
	return []WALMark{*s.WAL}
}

// snapshotVersion guards the cluster snapshot wire format.
const snapshotVersion = 1

// Flush fans POST /flush out to the serving workers — the ones Estimate
// gathers from — and blocks until each has applied every batch delivered
// before the call: a position barrier. Submits are excluded while it runs
// (same locking as Snapshot), so when Flush returns nil a subsequent
// Estimate reflects every completed submission. Fewer serving workers than
// the quorum is an ErrNoQuorum error, and a serving worker that fails the
// barrier fails the call. Unlike Snapshot it moves no state — this is the
// barrier to use when the caller wants read-your-writes, not a checkpoint.
func (c *Coordinator) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	live := c.eligible()
	if len(live) < c.quorum {
		return fmt.Errorf("%w: %d serving of %d (need %d)", ErrNoQuorum, len(live), len(c.workers), c.quorum)
	}
	errs := fanout(live, func(i int, w *workerRef) error {
		return c.post(w, "/flush", nil, nil)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: flush worker %s: %w", live[i].url, err)
		}
	}
	return nil
}

// Snapshot fans GET /snapshot out to the whole fleet and returns one
// versioned cluster blob. Every configured worker must contribute: a
// snapshot missing a worker could not restore the full cluster, so a
// degraded fleet cannot be checkpointed (restore it first). Each worker blob
// is validated (reusing the facade's snapshot inspection, core
// validation included) and the fleet must be uniform — same pattern set and
// shard shape on every worker.
func (c *Coordinator) Snapshot() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Excluding submits while the snapshot fans out is what makes the blob
	// a single stream position: every completed submit is on every
	// worker, and none is mid-flight on some workers only. Reads stay
	// concurrent (they take neither lock exclusively).
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	if live := c.eligible(); len(live) < len(c.workers) {
		return nil, fmt.Errorf("cluster: %d of %d workers are not serving (lagging or inconsistent); a cluster snapshot needs the whole fleet (catch it up or restore it first)", len(c.workers)-len(live), len(c.workers))
	}
	snap := Snapshot{ClusterVersion: snapshotVersion, Workers: make([]json.RawMessage, len(c.workers)), Partitioned: c.partitioned}
	// Under bcastMu no submit is mid-flight and every eligible worker has
	// acked its log's end, so the fleet sits at exactly these positions.
	marks := make([]WALMark, len(c.wals))
	for i, lg := range c.wals {
		marks[i] = WALMark{Position: lg.End(), Events: lg.Events()}
	}
	if c.partitioned && c.wals != nil {
		snap.WALs = marks
	} else if c.wals != nil {
		snap.WAL = &marks[0]
	}
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		raw, err := c.get(w, "/snapshot")
		if err != nil {
			return err
		}
		snap.Workers[i] = raw
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshot worker %s: %w", c.workers[i].url, err)
		}
	}
	infos, err := validateWorkerBlobs(snap.Workers)
	if err != nil {
		return nil, err
	}
	// The workers' own recorded positions must agree with their logs — a
	// mismatch means some worker's state is not its logged stream, and a blob
	// that replays wrongly is worse than no blob.
	for i, info := range infos {
		if w := c.workers[i]; c.wals != nil && info.Position != marks[c.slot(w)].Events {
			return nil, fmt.Errorf("cluster: worker %s snapshot is at position %d, its log is at %d; the blob does not describe one stream position", w.url, info.Position, marks[c.slot(w)].Events)
		}
	}
	return json.Marshal(snap)
}

// validateWorkerBlobs inspects every worker ensemble blob (which runs the
// core snapshot validation on each shard) and checks fleet uniformity,
// returning the per-worker infos.
func validateWorkerBlobs(blobs []json.RawMessage) ([]wsd.ShardedSnapshotInfo, error) {
	infos := make([]wsd.ShardedSnapshotInfo, len(blobs))
	for i, raw := range blobs {
		info, err := wsd.InspectShardedSnapshot(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d snapshot: %w", i, err)
		}
		infos[i] = info
		if i == 0 {
			continue
		}
		if !slices.Equal(info.Patterns, infos[0].Patterns) {
			return nil, fmt.Errorf("cluster: worker %d counts a different pattern set than worker 0; the fleet must be uniform", i)
		}
		if info.Shards != infos[0].Shards {
			return nil, fmt.Errorf("cluster: worker %d holds %d shards, worker 0 holds %d; the fleet must be uniform", i, info.Shards, infos[0].Shards)
		}
	}
	return infos, nil
}

// DecodeSnapshot parses and validates a cluster Snapshot blob — version,
// per-worker ensemble decode (core validation included), and fleet
// uniformity — without contacting any worker.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("cluster: decode snapshot: %w", err)
	}
	if snap.ClusterVersion != snapshotVersion {
		// The mirror image of the facade's cluster-blob refusal: a
		// single-process ensemble blob has no cluster_version, so point the
		// operator at the right endpoint instead of reporting "version 0".
		var ensembleProbe struct {
			Version int               `json:"version"`
			Shards  []json.RawMessage `json:"shards"`
		}
		if snap.ClusterVersion == 0 && json.Unmarshal(data, &ensembleProbe) == nil && len(ensembleProbe.Shards) > 0 {
			return nil, fmt.Errorf("cluster: blob is a single-process ensemble snapshot (%d shards); POST it to one worker's /restore, not the coordinator's", len(ensembleProbe.Shards))
		}
		return nil, fmt.Errorf("cluster: snapshot version %d unsupported (want %d)", snap.ClusterVersion, snapshotVersion)
	}
	if len(snap.Workers) == 0 {
		return nil, fmt.Errorf("cluster: snapshot holds no workers")
	}
	if _, err := validateWorkerBlobs(snap.Workers); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Restore fans a cluster snapshot back out: worker i receives blob i on
// POST /restore. The blob must hold exactly one ensemble per configured
// worker; each worker re-validates its blob against its own configuration
// (pattern set, shard count, budget), so a mismatched deployment refuses the
// restore before any state is swapped on it. On success every worker is
// marked consistent again — Restore is how a degraded fleet heals. If any
// worker fails, the workers that did restore have swapped state while the
// failed ones kept theirs, so the error marks the failures inconsistent and
// the cluster stays degraded until a retry succeeds.
func (c *Coordinator) Restore(blob []byte) error {
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		return err
	}
	if len(snap.Workers) != len(c.workers) {
		return fmt.Errorf("cluster: snapshot holds %d workers, coordinator is configured for %d", len(snap.Workers), len(c.workers))
	}
	if snap.Partitioned != c.partitioned {
		// Worker blobs carry whole-stream samples in broadcast mode and
		// per-partition shares in partitioned mode; crossing the modes would
		// restore state that silently estimates the wrong quantity.
		if snap.Partitioned {
			return fmt.Errorf("cluster: snapshot was taken by a partitioned coordinator; this coordinator broadcasts")
		}
		return fmt.Errorf("cluster: snapshot was taken by a broadcast coordinator; this coordinator is partitioned")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	// Position the blob against each log before any worker state is touched:
	// the restore is only useful if the log can carry its workers from the
	// blob's position to the present.
	recorded := snap.marks()
	if c.wals != nil && recorded != nil && len(recorded) != len(c.wals) {
		return fmt.Errorf("cluster: snapshot records %d log positions, coordinator has %d logs", len(recorded), len(c.wals))
	}
	marks := make([]WALMark, len(c.wals))
	for i, lg := range c.wals {
		var m *WALMark
		if recorded != nil {
			m = &recorded[i]
		}
		mark, err := positionMark(lg, m)
		if err != nil {
			if c.partitioned {
				err = fmt.Errorf("partition %d: %w", i, err)
			}
			return err
		}
		marks[i] = *mark
	}
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		return c.post(w, "/restore", snap.Workers[i], nil)
	})
	var firstErr error
	for i, err := range errs {
		w := c.workers[i]
		if err != nil {
			w.inconsistent.Store(true)
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: worker %s: %v", ErrPartialRestore, w.url, err)
			}
		} else {
			w.inconsistent.Store(false)
			if lg := c.walFor(w); lg != nil {
				mark := marks[c.slot(w)]
				w.acked.Store(mark.Position)
				w.ackedEvents.Store(mark.Events)
				w.lagging.Store(mark.Position < lg.End())
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	// Where a blob is behind its log's present, finish the job by replay, so
	// a successful restore always lands the fleet at the log ends. A replay
	// failure is retried automatically at the next submit.
	var replayErr error
	for _, w := range c.workers {
		if !w.lagging.Load() {
			continue
		}
		if err := c.replayTo(w); err != nil {
			if replayErr == nil {
				replayErr = fmt.Errorf("%w: worker %s: %v", ErrCatchUpIncomplete, w.url, err)
			}
			continue
		}
		w.lagging.Store(false)
	}
	return replayErr
}

// positionMark validates a snapshot's recorded position against one
// write-ahead log (see Restore): behind retention is fatal, ahead of the log
// re-anchors an empty log at the mark, inside the range must align with a
// frame boundary holding the recorded event count. A nil mark (a blob from
// before the log existed) is sound only on a fresh log and positions at zero.
func positionMark(lg *wal.Log, mark *WALMark) (*WALMark, error) {
	if mark == nil {
		if lg.End() != 0 || lg.Base() != 0 {
			return nil, fmt.Errorf("cluster: snapshot carries no log position but the log spans (%d, %d]; take a fresh cluster snapshot (which records its position) or start from an empty -wal-dir", lg.Base(), lg.End())
		}
		return &WALMark{}, nil
	}
	switch {
	case mark.Position < lg.Base():
		return nil, fmt.Errorf("cluster: snapshot is at position %d but retention begins at %d (%v); take a fresh cluster snapshot", mark.Position, lg.Base(), wal.ErrTruncated)
	case mark.Position > lg.End():
		// Ahead of the log: sound only when the log holds no frames at all (a
		// fresh directory) — the blob supplies everything through its mark and
		// the log re-anchors there.
		if err := lg.RebaseEmpty(mark.Position, mark.Events); err != nil {
			return nil, fmt.Errorf("cluster: snapshot is at position %d but the log ends at %d: %v", mark.Position, lg.End(), err)
		}
	default:
		if ev, ok := lg.EventsAt(mark.Position); !ok || ev != mark.Events {
			return nil, fmt.Errorf("cluster: snapshot records %d events at position %d, the log has %d; snapshot and log describe different streams", mark.Events, mark.Position, ev)
		}
	}
	return mark, nil
}

// SwapPolicy fans a policy artifact out to the whole fleet as PUT /policy:
// every worker quiesces its ensemble and swaps its weight function to the
// artifact's policy, reservoir state untouched. The swap needs the full fleet
// — a worker that keeps the old weights would contribute estimates weighted
// differently from the rest, which the combiner cannot reconcile — so a
// degraded fleet refuses the swap before any worker changes (catch it up or
// restore it first).
//
// The artifact is decoded and validated locally first: a malformed blob is a
// client error wrapping ErrPolicyRejected and no worker is contacted. If
// every worker validated and rejected the artifact (4xx) nothing was applied
// anywhere and the fleet stays uniform; the error again wraps
// ErrPolicyRejected. Any other failure after at least one worker swapped
// leaves the fleet running two weight functions: the failed workers are
// marked inconsistent (excluded from reads) and the error wraps
// ErrPartialSwap — retry the swap or Restore to heal.
func (c *Coordinator) SwapPolicy(artifact []byte) error {
	if _, err := policy.Decode(artifact); err != nil {
		return fmt.Errorf("%w: %w", ErrPolicyRejected, err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Excluding submits while the swap fans out gives every worker the
	// weight flip at the same stream position — the fleet analogue of the
	// ensemble's quiesce barrier.
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	if live := c.eligible(); len(live) < len(c.workers) {
		return fmt.Errorf("cluster: %d of %d workers are not serving (lagging or inconsistent); a policy swap needs the whole fleet (catch it up or restore it first)", len(c.workers)-len(live), len(c.workers))
	}
	errs := fanout(c.workers, func(i int, w *workerRef) error {
		return c.put(w, "/policy", artifact, nil)
	})
	var (
		firstErr error
		clientRejects,
		applied int
	)
	for i, err := range errs {
		if err == nil {
			applied++
			continue
		}
		var se *statusError
		if errors.As(err, &se) && se.client() {
			clientRejects++
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("worker %s: %w", c.workers[i].url, err)
		}
	}
	if applied == len(c.workers) {
		return nil
	}
	if applied == 0 && clientRejects == len(c.workers) {
		// Every worker validated the artifact whole and rejected it (e.g. the
		// pattern does not match the deployment): nothing changed anywhere, the
		// fleet still runs one weight function.
		return fmt.Errorf("%w by workers: %v", ErrPolicyRejected, firstErr)
	}
	for i, err := range errs {
		if err != nil {
			// Some worker swapped (or the outcome is unknowable), so a worker
			// that did not provably apply the new policy no longer weights
			// events like the rest of the fleet.
			c.workers[i].inconsistent.Store(true)
		}
	}
	return fmt.Errorf("%w: %d of %d workers swapped: %v", ErrPartialSwap, applied, len(c.workers), firstErr)
}

// PolicyStatus gathers GET /policy from the serving workers, verifies the
// fleet runs one policy, and returns the first worker's reply verbatim.
func (c *Coordinator) PolicyStatus() (json.RawMessage, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := c.eligible()
	if len(live) < c.quorum {
		return nil, fmt.Errorf("%w: %d serving of %d (need %d)", ErrNoQuorum, len(live), len(c.workers), c.quorum)
	}
	replies := make([][]byte, len(live))
	errs := fanout(live, func(i int, w *workerRef) error {
		raw, err := c.get(w, "/policy")
		replies[i] = raw
		return err
	})
	var (
		ref      json.RawMessage
		refID    string
		refURL   string
		gathered int
	)
	for i, raw := range replies {
		if errs[i] != nil {
			continue
		}
		gathered++
		var probe struct {
			Policy string `json:"policy"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("cluster: worker %s /policy reply: %w", live[i].url, err)
		}
		if ref == nil {
			ref, refID, refURL = raw, probe.Policy, live[i].url
			continue
		}
		if probe.Policy != refID {
			return nil, fmt.Errorf("cluster: workers run different policies (%s on %s, %s on %s); swap through the coordinator to keep the fleet uniform", refID, refURL, probe.Policy, live[i].url)
		}
	}
	if gathered < c.quorum {
		return nil, fmt.Errorf("%w: gathered %d of %d workers (need %d)", ErrNoQuorum, gathered, len(c.workers), c.quorum)
	}
	return ref, nil
}

// WorkerHealth is one worker's slice of a cluster health probe.
type WorkerHealth struct {
	URL string `json:"url"`
	// Consistent is false once the worker's state cannot be healed by log
	// replay (or, without a log, once it has missed any share); it needs
	// a cluster restore to rejoin.
	Consistent bool `json:"consistent"`
	// Reachable is whether the worker answered this probe.
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	// Lagging (log mode) is true while the worker is behind the log and
	// awaiting catch-up replay; it is excluded from reads meanwhile.
	Lagging bool `json:"lagging,omitempty"`
	// Position is the worker's self-reported absolute stream position (log
	// mode, reachable workers only); Acked is the newest log position the
	// coordinator has confirmed on it.
	Position int64  `json:"position,omitempty"`
	Acked    uint64 `json:"acked,omitempty"`
	// Policy is the worker's self-reported active weight function: a learned
	// policy's content ID, or "heuristic".
	Policy string `json:"policy,omitempty"`
}

// WALHealth is the coordinator's view of one write-ahead log.
type WALHealth struct {
	Dir string `json:"dir"`
	// Base..End is the retained position range; Events the cumulative event
	// count through End; Segments the segment file count.
	Base     uint64 `json:"base"`
	End      uint64 `json:"end"`
	Events   int64  `json:"events"`
	Segments int    `json:"segments"`
}

// Health is the coordinator's readiness report: the fleet roster with
// per-worker consistency and reachability, and whether enough workers are
// serving to meet the read quorum.
type Health struct {
	// Status is "ok" (full fleet serving), "degraded" (some workers out but
	// quorum holds), or "unavailable" (below quorum).
	Status string `json:"status"`
	// Workers is the configured fleet size; Serving counts workers that are
	// both consistent and currently reachable.
	Workers int `json:"workers"`
	Serving int `json:"serving"`
	// Quorum is the configured read quorum; HasQuorum is Serving >= Quorum.
	Quorum    int  `json:"quorum"`
	HasQuorum bool `json:"has_quorum"`
	// Patterns and Shards describe the deployment as reported by the first
	// serving worker's /healthz (empty/zero when nothing is reachable);
	// Policy is its active weight function (a policy content ID or
	// "heuristic"). Every serving worker must agree on all three — a worker
	// weighting events under a different policy than the rest of the fleet
	// degrades health, exactly like a mismatched pattern set.
	Patterns []string `json:"patterns,omitempty"`
	Shards   int      `json:"shards,omitempty"`
	Policy   string   `json:"policy,omitempty"`
	// Window and Halflife are the fleet's temporal serving mode as reported
	// by the first serving worker (zero for whole-stream); a worker on a
	// different mode degrades health like a mismatched pattern set.
	Window   int64   `json:"window,omitempty"`
	Halflife float64 `json:"halflife,omitempty"`
	// Partitioned reports the coordinator's ingest mode; in partitioned mode
	// each worker's partition slot is verified against its fleet index, so a
	// mis-deployed worker (wrong -partition-index, or not partitioned at all)
	// degrades health instead of silently biasing every read.
	Partitioned bool `json:"partitioned,omitempty"`
	// WALs reports each write-ahead log's retained range, one entry per
	// routing slot: one in broadcast mode, one per partition (fleet order) in
	// partitioned mode, none without durability.
	WALs []WALHealth `json:"wals,omitempty"`
	// WorkersDetail lists every configured worker.
	WorkersDetail []WorkerHealth `json:"workers_detail"`
}

// Health probes every worker's /healthz concurrently and reports fleet
// readiness. Probing never mutates consistency: a worker that misses a probe
// is reported unreachable but keeps its state. Health deliberately takes no
// coordinator lock — it reads only immutable config and per-worker atomics —
// so orchestrator liveness probes keep answering even while a long Restore
// holds the write lock.
func (c *Coordinator) Health() Health {
	h := Health{Workers: len(c.workers), Quorum: c.quorum, Partitioned: c.partitioned}
	h.WorkersDetail = make([]WorkerHealth, len(c.workers))
	for _, lg := range c.wals {
		h.WALs = append(h.WALs, WALHealth{Dir: lg.Dir(), Base: lg.Base(), End: lg.End(), Events: lg.Events(), Segments: lg.Segments()})
	}
	type workerHealthz struct {
		Patterns  []string `json:"patterns"`
		Shards    int      `json:"shards"`
		Position  int64    `json:"position"`
		Policy    string   `json:"policy"`
		Window    int64    `json:"window"`
		Halflife  float64  `json:"halflife"`
		Partition *struct {
			Index int `json:"index"`
			Count int `json:"count"`
		} `json:"partition"`
	}
	probes := make([]*workerHealthz, len(c.workers))
	fanout(c.workers, func(i int, w *workerRef) error {
		wh := WorkerHealth{URL: w.url, Consistent: !w.inconsistent.Load(), Lagging: w.lagging.Load()}
		if c.wals != nil {
			wh.Acked = w.acked.Load()
		}
		raw, err := c.get(w, "/healthz")
		if err != nil {
			wh.Error = err.Error()
		} else {
			wh.Reachable = true
			var probe workerHealthz
			if json.Unmarshal(raw, &probe) == nil {
				probes[i] = &probe
				wh.Policy = probe.Policy
				if c.wals != nil {
					wh.Position = probe.Position
				}
			}
		}
		h.WorkersDetail[i] = wh
		return nil
	})
	uniform := true
	var ref *workerHealthz
	for i := range h.WorkersDetail {
		wh := &h.WorkersDetail[i]
		if !wh.Consistent || !wh.Reachable || wh.Lagging {
			continue
		}
		h.Serving++
		probe := probes[i]
		if probe == nil {
			continue
		}
		// Partition slots are per-worker config, not fleet-wide: worker i must
		// serve partition i of exactly this fleet size under a partitioned
		// coordinator (its sampling weights depend on it), and must not weight
		// by partition at all under a broadcast one.
		if c.partitioned {
			if probe.Partition == nil {
				uniform = false
				wh.Error = "worker is not configured for partitioned ingest (no partition slot in /healthz); start it with -partition-index and -partition-count"
			} else if probe.Partition.Index != i || probe.Partition.Count != len(c.workers) {
				uniform = false
				wh.Error = fmt.Sprintf("worker serves partition %d of %d but holds fleet slot %d of %d; fix its -partition-index/-partition-count", probe.Partition.Index, probe.Partition.Count, i, len(c.workers))
			}
		} else if probe.Partition != nil {
			uniform = false
			wh.Error = fmt.Sprintf("worker weights events for partition %d of %d but this coordinator broadcasts; remove its partition flags", probe.Partition.Index, probe.Partition.Count)
		}
		if ref == nil {
			ref = probe
			h.Patterns = probe.Patterns
			h.Shards = probe.Shards
			h.Policy = probe.Policy
			h.Window = probe.Window
			h.Halflife = probe.Halflife
			continue
		}
		// A worker counting a different pattern set (or shard shape) than
		// the rest of the fleet cannot contribute to the ensemble; readiness
		// must not show green on a fleet whose reads will all fail.
		if !slices.Equal(probe.Patterns, ref.Patterns) || probe.Shards != ref.Shards {
			uniform = false
			wh.Error = fmt.Sprintf("worker configuration differs from the fleet: patterns %v / %d shards vs %v / %d shards", probe.Patterns, probe.Shards, ref.Patterns, ref.Shards)
		} else if probe.Policy != ref.Policy {
			// A split-policy fleet (a partial swap, or a worker restarted with
			// stale boot flags) weights events inconsistently across workers;
			// its combined estimates mix estimators of different variance
			// silently, so readiness reports it instead.
			uniform = false
			wh.Error = fmt.Sprintf("worker runs policy %s but the fleet reference runs %s; re-run the policy swap or restore a cluster snapshot", probe.Policy, ref.Policy)
		} else if probe.Window != ref.Window || probe.Halflife != ref.Halflife {
			// A split temporal mode means the workers estimate different
			// quantities; every combined read would be silently wrong.
			uniform = false
			wh.Error = fmt.Sprintf("worker serves window=%d halflife=%v but the fleet reference serves window=%d halflife=%v; restart it with matching flags", probe.Window, probe.Halflife, ref.Window, ref.Halflife)
		}
	}
	h.HasQuorum = h.Serving >= c.quorum
	switch {
	case !h.HasQuorum:
		h.Status = "unavailable"
	case h.Serving < h.Workers || !uniform:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

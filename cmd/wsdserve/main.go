// Command wsdserve runs the subgraph-count estimator as an HTTP service — a
// sharded WSD ensemble behind batch ingestion, estimate, and
// checkpoint/restore endpoints — or, in coordinator mode, as the scatter/
// gather front end over a fleet of such services.
//
// Usage:
//
//	wsdserve -addr :8080 -pattern triangle -m 100000 -shards 4
//	wsdserve -pattern triangle,wedge,4clique   # multi-pattern: one stream, three counts
//	wsdserve -checkpoint state.json   # load on start if present, save on SIGTERM
//	wsdserve -mode coordinator -workers host1:8080,host2:8080,host3:8080
//
// Endpoints (both modes):
//
//	POST /ingest    stream events, text or binary (auto-detected)
//	GET  /estimate  running estimate(s) as JSON; ?pattern=<name> for one
//	GET  /snapshot  full counter state (save it anywhere)
//	POST /restore   a previously fetched snapshot
//	GET  /healthz   readiness: pattern set and shape; worker quorum in coordinator mode
//	GET  /policy    active weight function: learned policy ID and provenance, or heuristic
//	PUT  /policy    hot-swap a trained policy artifact (fleet-wide in coordinator mode)
//
// Feed it with wsdgen, curl, or any client that speaks the stream formats:
//
//	wsdgen -model ba -n 100000 -format binary | curl --data-binary @- localhost:8080/ingest
//
// See docs/operations.md for the full operator guide: deployment topologies,
// the checkpoint lifecycle, and degraded-mode semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	wsd "repro"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/combine"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mode := flag.String("mode", "single", "serving mode: single (one sharded counter in this process) or coordinator (scatter/gather over -workers)")
	workers := flag.String("workers", "", "coordinator mode: comma-separated worker base URLs (host:port or http://host:port)")
	quorum := flag.Int("quorum", 0, "coordinator mode: minimum workers required to serve a request (0 = majority)")
	workerTimeout := flag.Duration("worker-timeout", 10*time.Second, "coordinator mode: per-worker request timeout")
	pat := flag.String("pattern", "triangle", "pattern(s) to count: wedge, triangle, 4cycle, 4clique, 5clique; comma-separate for a multi-pattern deployment over one shared stream (first = primary)")
	m := flag.Int("m", 100_000, "total reservoir budget (edges)")
	shards := flag.Int("shards", 4, "ensemble width (counters fed every event)")
	seed := flag.Int64("seed", 1, "sampler seed")
	fullBudget := flag.Bool("full-budget", false, "give every shard the full budget m (uses shards x memory, 1/shards variance)")
	mom := flag.Int("mom", 0, "median-of-means groups for the combined estimate (0 = plain mean); in coordinator mode, groups over worker estimates")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: restored on start if it exists, written on SIGINT/SIGTERM (a cluster blob in coordinator mode)")
	walDir := flag.String("wal-dir", "", "coordinator mode: write-ahead log directory; every batch is logged before fan-out and lagging workers are healed by replay (empty = no log; with -partition, holds one p<N> log per partition)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 64<<20, "coordinator mode: write-ahead log segment rotation size in bytes")
	part := flag.Bool("partition", false, "coordinator mode: route each edge to the workers owning its endpoints instead of broadcasting (ingest scales with the fleet); workers must run with matching -partition-index/-partition-count")
	partIndex := flag.Int("partition-index", -1, "single mode: this worker's partition slot under a partitioned coordinator (0-based fleet index; set with -partition-count)")
	partCount := flag.Int("partition-count", 0, "single mode: the partitioned fleet's size this worker belongs to (set with -partition-index)")
	policyPath := flag.String("policy", "", "single mode: boot with a trained WSD-L policy artifact (wsdtrain output) as the weight function; swap later via PUT /policy")
	winFlag := flag.Int64("window", 0, "single mode: serve sliding-window estimates over the last N insertion events (0 = whole stream; exclusive with -halflife)")
	halflife := flag.Float64("halflife", 0, "single mode: serve exponentially decayed estimates with this halflife in insertion events (0 = whole stream; exclusive with -window)")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := flagConflict(*mode, set, *part, *partIndex, *partCount); err != nil {
		fatal(err)
	}

	var (
		handler  http.Handler
		snapshot func() ([]byte, error)
		restore  func([]byte) error
		closing  func()
		booted   func()
	)
	switch *mode {
	case "single":
		kinds, err := cli.ParsePatterns(*pat)
		if err != nil {
			fatal(err)
		}
		opts := []wsd.Option{wsd.WithSeed(*seed)}
		if *fullBudget {
			opts = append(opts, wsd.WithFullBudgetShards())
		}
		if *mom > 0 {
			opts = append(opts, wsd.WithMedianOfMeans(*mom))
		}
		cfg := serve.Config{Pattern: kinds[0], M: *m, Shards: *shards, Options: opts,
			Window: *winFlag, Halflife: *halflife}
		if len(kinds) > 1 {
			cfg.Patterns = kinds
		}
		if *partCount > 0 {
			cfg.PartitionIndex, cfg.PartitionCount = *partIndex, *partCount
		}
		if *policyPath != "" {
			data, err := os.ReadFile(*policyPath)
			if err != nil {
				fatal(err)
			}
			art, err := policy.Decode(data)
			if err != nil {
				fatal(fmt.Errorf("-policy %s: %w", *policyPath, err))
			}
			cfg.Policy = art
			log.Printf("wsdserve: booting with policy %s (%s, trained seed %d)", art.ID(), art.Pattern, art.Provenance.Seed)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			fatal(err)
		}
		handler = srv.Handler()
		snapshot = srv.Snapshot
		restore = func(blob []byte) error { _, err := srv.Restore(blob); return err }
		closing = func() { log.Printf("wsdserve: final estimate %.2f", srv.Close()) }
		log.Printf("wsdserve: serving %v with %d shards, m=%d on %s", kinds, *shards, *m, *addr)
	case "coordinator":
		urls, err := cli.ParseWorkers(*workers)
		if err != nil {
			fatal(fmt.Errorf("-workers: %w", err))
		}
		ccfg := cluster.Config{Workers: urls, Quorum: *quorum, Timeout: *workerTimeout, Partitioned: *part}
		if *mom > 0 {
			ccfg.Combiner = combine.MedianOfMeans(*mom)
		}
		var walLogs []*wal.Log // every opened log, either mode, for closing
		if *walDir != "" {
			if *part {
				// One log per partition, in subdirectories p0..p<N-1> of
				// -wal-dir, index-aligned with -workers.
				ccfg.Logs = make([]*wal.Log, len(urls))
				for i := range urls {
					lg, err := wal.Open(filepath.Join(*walDir, fmt.Sprintf("p%d", i)), wal.Options{SegmentBytes: *walSegmentBytes})
					if err != nil {
						fatal(err)
					}
					ccfg.Logs[i] = lg
					walLogs = append(walLogs, lg)
					log.Printf("wsdserve: partition %d write-ahead log %s at position %d (%d events, %d segments)",
						i, lg.Dir(), lg.End(), lg.Events(), lg.Segments())
				}
			} else {
				walLog, err := wal.Open(*walDir, wal.Options{SegmentBytes: *walSegmentBytes})
				if err != nil {
					fatal(err)
				}
				ccfg.Log = walLog
				walLogs = append(walLogs, walLog)
				log.Printf("wsdserve: write-ahead log %s at position %d (%d events, %d segments)",
					*walDir, walLog.End(), walLog.Events(), walLog.Segments())
			}
		}
		coord, err := serve.NewCoordinator(serve.CoordinatorConfig{Cluster: ccfg})
		if err != nil {
			fatal(err)
		}
		handler = coord.Handler()
		snapshot = coord.Cluster().Snapshot
		restore = coord.Cluster().Restore
		closing = func() {
			for _, lg := range walLogs {
				if err := lg.Close(); err != nil {
					log.Printf("wsdserve: close write-ahead log %s: %v", lg.Dir(), err)
				}
			}
		}
		if len(walLogs) > 0 {
			// Re-align the fleet against the reopened log(s) before serving
			// (after any checkpoint restore): a coordinator restart loses its
			// in-memory ack table, and a lagging worker heals right here
			// instead of at the first ingest. Failures are retried
			// automatically at each ingest; just report them.
			booted = func() {
				if err := coord.Cluster().CatchUp(); err != nil {
					log.Printf("wsdserve: catch-up: %v", err)
				} else {
					log.Printf("wsdserve: fleet caught up to its log end(s)")
				}
			}
		}
		modeWord := "coordinating"
		if *part {
			modeWord = "coordinating (partitioned)"
		}
		log.Printf("wsdserve: %s %d workers (quorum %d) on %s", modeWord, coord.Cluster().Workers(), coord.Cluster().Quorum(), *addr)
	default:
		fatal(fmt.Errorf("unknown -mode %q (single, coordinator)", *mode))
	}

	if *checkpoint != "" {
		if blob, err := os.ReadFile(*checkpoint); err == nil {
			if err := restore(blob); err != nil {
				fatal(fmt.Errorf("restore %s: %w", *checkpoint, err))
			}
			log.Printf("wsdserve: restored from %s", *checkpoint)
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	if booted != nil {
		booted()
	}

	httpSrv := newHTTPServer(*addr, handler)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("wsdserve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if *checkpoint != "" {
		blob, err := snapshot()
		if err != nil {
			fatal(err)
		}
		if err := cli.WriteFileAtomic(*checkpoint, blob, 0o644); err != nil {
			fatal(err)
		}
		log.Printf("wsdserve: checkpointed %d bytes to %s", len(blob), *checkpoint)
	}
	closing()
}

// The server's fixed timeouts. A client that has not sent its whole request
// header within readHeaderTimeout, has not sent its whole request (header and
// body) within readTimeout, or leaves a keep-alive connection idle for
// idleTimeout, is disconnected, so slow or stalled clients cannot hold
// connections open indefinitely. readTimeout fits the largest accepted body
// (MaxBodyBytes, 64 MiB = 537 Mbit) at 5 Mbit/s: 107 s, plus a header sent
// within readHeaderTimeout, is under 120 s. idleTimeout exceeds the 90 s
// after which the coordinator's client drops its own idle connections to
// workers, so the coordinator, not the worker, ends an idle fleet
// connection. There is no write timeout: a cluster snapshot may
// legitimately take long. Tests shorten the values.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 120 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the process's HTTP server for handler on addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// flagConflict fails fast on flag combinations the process would otherwise
// silently ignore: a flag the selected mode does not read (an operator
// passing -pattern to a coordinator believes they configured the fleet, but
// only the workers' flags govern), a combining flag under -partition (whose
// estimates compose by summation over the whole fleet — a -quorum or -mom
// the coordinator constructor may not even see would be dropped), or half a
// partition slot (an index without a count would start an ordinary
// full-weight worker that silently double-counts under its coordinator).
// set holds the names of explicitly passed flags (flag.Visit).
func flagConflict(mode string, set map[string]bool, partitioned bool, partIndex, partCount int) error {
	ignored := map[string][]string{
		"single":      {"workers", "quorum", "worker-timeout", "wal-dir", "wal-segment-bytes", "partition"},
		"coordinator": {"pattern", "m", "shards", "seed", "full-budget", "partition-index", "partition-count", "policy", "window", "halflife"},
	}[mode]
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -mode %s (it configures the %s side); see docs/operations.md",
				name, mode, map[string]string{"single": "coordinator", "coordinator": "worker"}[mode])
		}
	}
	if partitioned {
		if set["quorum"] {
			return fmt.Errorf("-quorum does not apply with -partition: every partition holds an irreplaceable share of the count, so the whole fleet is always required")
		}
		if set["mom"] {
			return fmt.Errorf("-mom does not apply with -partition: partitioned estimates compose by visibility-corrected summation, not median-of-means")
		}
	}
	if mode == "single" {
		if set["partition-index"] != set["partition-count"] {
			return fmt.Errorf("-partition-index and -partition-count must be set together (a worker needs both its slot and the fleet size to weight its events)")
		}
		if set["partition-count"] {
			if partCount < 1 {
				return fmt.Errorf("-partition-count %d: need at least 1", partCount)
			}
			if partIndex < 0 || partIndex >= partCount {
				return fmt.Errorf("-partition-index %d is outside the fleet [0, %d)", partIndex, partCount)
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wsdserve: %v\n", err)
	os.Exit(1)
}

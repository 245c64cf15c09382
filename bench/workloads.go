package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	wsd "repro"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/stream"
)

// batchSize is the events per ingest call on every workload: one
// SubmitBatch on the batch workloads, one /ingest body on the served ones.
const batchSize = 512

// streamSeed seeds the generator of every workload's stream. The streams are
// pinned (see pin) so that every run measures the same inputs; --seed varies
// only the samplers and the request schedules.
const streamSeed = 1

// A run sets the system up at least setupRepeats times, and for at least
// 1/setupShare of its measured time (1.3 s of a 40 s run); setup_s is the
// median. A dense4-wsdl set-up takes about 10 ms, so a fixed count alone
// would leave its median to a handful of samples.
const (
	setupRepeats = 7
	setupShare   = 30
)

// workload is one named set of inputs the benchmark runs. Exactly one of
// batch and served is set. Why each workload exists is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name   string
	batch  *batchSpec
	served *servedSpec
}

// batchSpec is a workload that replays one pinned stream through the
// library's sharded counter (wsd.NewShardedCounter) from a single producer.
type batchSpec struct {
	pattern wsd.Pattern
	m       int // total reservoir budget, split across shards
	shards  int
	// policy names the committed WSD-L artifact the counter runs; empty
	// means the WSD-H heuristic.
	policy string
	// panel is the number of replays under the pinned estimator seeds
	// 1..panel; their mean relative error is mre. Further replays, until the
	// run's time is up, use seeds derived from --seed.
	panel int
	// readEvery is the number of batches between reads.
	readEvery int
	// maxErr bounds mre; a larger mre fails the run as incorrect. mre is
	// deterministic (pinned seeds, fixed stream), so each workload's bound
	// sits about 1.5 times above its measured value: an estimator that
	// returns 0 (relative error 1) fails.
	maxErr float64
	// generate builds the pinned stream.
	generate func() stream.Stream
}

// servedSpec is a workload driven over loopback HTTP against an in-process
// fleet: two triangle workers (serve.New) behind a coordinator
// (serve.NewCoordinator). The ingest stream is an endless feasible churn
// over a Holme–Kim edge sequence: step t inserts edge t mod cycle and, from
// step live on, deletes the edge inserted live steps earlier, so the live
// graph is always the last live edges of the sequence.
type servedSpec struct {
	hkVertices, hkM int
	cycle, live     int   // edges in one pass of the sequence; live edges
	warmup          int   // events ingested during set-up, checked against the oracle
	workerM         int   // reservoir budget of each worker
	window          int64 // sliding window in insertion events; 0 counts the whole stream
	wal             bool  // the coordinator logs every batch to a write-ahead log
	// ingestRate (events/s) and readRate (reads/s) are the fixed rates of
	// the reference step; reads keep their rate during the capacity step.
	// ingestRate is about a quarter of the median capacity (throughput_eps)
	// measured for the workload on a 2-vCPU host whose capacity varies by a
	// factor of 2 over hours. At half the median, the slow hours load the
	// fleet to 70%, queueing takes over and the latencies no longer repeat
	// (see bench/README.md).
	ingestRate, readRate float64
	maxErr               float64
}

//go:embed testdata/dense4.wsdp
var dense4Policy []byte

// artifacts maps a batchSpec.policy name to the committed artifact bytes.
var artifacts = map[string][]byte{"dense4": dense4Policy}

// workloads returns the benchmark's workloads at full scale.
func workloads() []workload {
	return []workload{
		{
			name: "dense4-wsdl",
			batch: &batchSpec{
				pattern: wsd.FourCliquePattern, m: 60_000, shards: 1, policy: "dense4",
				panel: 10, readEvery: 8, maxErr: 0.018, // mre 0.0120
				generate: func() stream.Stream { return plantedStream(120, 50) },
			},
		},
		{
			name: "churn3-shard2",
			batch: &batchSpec{
				pattern: wsd.TrianglePattern, m: 30_000, shards: 2,
				panel: 10, readEvery: 64, maxErr: 0.26, // mre 0.171
				generate: func() stream.Stream { return churnStream(150_000, 10) },
			},
		},
		{
			name: "fleet-wal-window",
			served: &servedSpec{
				hkVertices: 27_000, hkM: 10, cycle: 1 << 18, live: 1 << 17, warmup: 1 << 18,
				workerM: 16384, window: 1 << 16, wal: true,
				ingestRate: 150_000, readRate: 500, maxErr: 0.2, // mre 0.132
			},
		},
	}
}

// toyWorkloads returns the same workloads at a scale that runs in well under
// a second each, for the harness self-test.
func toyWorkloads() []workload {
	ws := workloads()
	for i := range ws {
		if b := ws[i].batch; b != nil {
			toy := *b
			toy.panel, toy.readEvery, toy.maxErr = 2, 2, 2
			if b.pattern == wsd.FourCliquePattern {
				toy.m = 800
				toy.generate = func() stream.Stream { return plantedStream(6, 30) }
			} else {
				toy.m = 1200
				toy.generate = func() stream.Stream { return churnStream(4000, 5) }
			}
			ws[i].batch = &toy
			continue
		}
		toy := *ws[i].served
		toy.hkVertices, toy.hkM = 1200, 5
		toy.cycle, toy.live, toy.warmup = 4096, 2048, 4096
		toy.workerM, toy.maxErr = 512, 2
		if toy.window > 0 {
			toy.window = 1024
		}
		toy.ingestRate, toy.readRate = 20_000, 100
		ws[i].served = &toy
	}
	return ws
}

func lookup(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plantedStream is the dense community stream: k planted communities of the
// given size (intra-community edge probability 0.9, inter 0.001) under light
// deletions (β = 0.1). wsdgen -model planted -p 0.9 -scenario light
// -beta 0.1 draws from the same family.
func plantedStream(k, size int) stream.Stream {
	rng := rand.New(rand.NewSource(streamSeed))
	return stream.LightDeletion(gen.PlantedPartition(k, size, 0.9, 0.001, rng), 0.1, rng)
}

// churnStream is the mass-deletion stream: a Holme–Kim graph (triad
// probability 0.8) with 6 mass deletions (β_M = 0.5) in its first 75%.
func churnStream(n, m int) stream.Stream {
	rng := rand.New(rand.NewSource(streamSeed))
	return stream.MassiveDeletionEvents(gen.HolmeKim(n, m, 0.8, rng), 6, 0.5, 0.25, rng)
}

// pin identifies a workload's inputs. A run recomputes it and refuses to
// measure when it differs from the committed pins.json: a change to gen,
// stream, exact or the policy artifact would otherwise silently change what
// is measured.
type pin struct {
	// Events is the stream length (served: the warm-up prefix).
	Events int `json:"events"`
	// Fingerprint is the FNV-64a hash of those events.
	Fingerprint string `json:"fingerprint"`
	// Oracle is the exact count at the end of those events.
	Oracle int64 `json:"oracle"`
	// Policy is the WSD-L artifact ID, or "heuristic".
	Policy string `json:"policy"`
}

//go:embed pins.json
var pinsJSON []byte

// committedPins returns the pins committed for every full-scale workload.
func committedPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// checkPin compares a run's recomputed pin with the pinned one. The error
// prints the recomputed pin as a pins.json entry, to paste there after a
// deliberate input change.
func checkPin(name string, got, want pin) error {
	if got != want {
		entry, err := json.Marshal(map[string]pin{name: got})
		if err != nil {
			return err
		}
		return fmt.Errorf("workload drift in %s: pins.json says %+v, but the inputs are %s", name, want, entry)
	}
	return nil
}

// fingerprint returns the FNV-64a hash of the events' op and endpoints.
func fingerprint(evs []stream.Event) string {
	h := fnv.New64a()
	var buf [17]byte
	for _, ev := range evs {
		buf[0] = byte(ev.Op)
		binary.LittleEndian.PutUint64(buf[1:], uint64(ev.Edge.U))
		binary.LittleEndian.PutUint64(buf[9:], uint64(ev.Edge.V))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// policyID returns the ID of the named artifact, or "heuristic".
func policyID(name string) (string, error) {
	if name == "" {
		return "heuristic", nil
	}
	art, err := policy.Decode(artifacts[name])
	if err != nil {
		return "", fmt.Errorf("policy %s: %w", name, err)
	}
	return art.ID(), nil
}

// batchInput is a batch workload's prepared input: the stream's wire
// encoding, which set-up decodes, and its pin.
type batchInput struct {
	encoded []byte
	pin     pin
}

func (b *batchSpec) inputs() (batchInput, error) {
	s := b.generate()
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, s); err != nil {
		return batchInput{}, err
	}
	id, err := policyID(b.policy)
	if err != nil {
		return batchInput{}, err
	}
	p := pin{
		Events:      len(s),
		Fingerprint: fingerprint(s),
		Oracle:      exact.CountStatic(s.FinalGraph(), b.pattern),
		Policy:      id,
	}
	return batchInput{encoded: buf.Bytes(), pin: p}, nil
}

// cachedInputs returns the inputs a run of this same executable stored in
// dir, or generates them when there are none (or dir is empty); cached
// reports which. Generating a batch stream and counting its oracle is most
// of a batch run's set-up overhead (about 4 s for dense4-wsdl, 6 s for
// churn3-shard2). Entries are keyed by a digest of the executable, so a
// change to gen, stream or exact, which rebuilds it, generates and checks
// the inputs afresh; a damaged entry fails the fingerprint check that every
// run makes on the decoded stream.
func (b *batchSpec) cachedInputs(dir, name string) (in batchInput, cached bool, err error) {
	if dir != "" {
		key, err := cacheKey(dir, name)
		if err != nil {
			return batchInput{}, false, err
		}
		enc, encErr := os.ReadFile(key + ".wsdb")
		raw, pinErr := os.ReadFile(key + ".pin.json")
		if encErr == nil && pinErr == nil && json.Unmarshal(raw, &in.pin) == nil {
			in.encoded = enc
			return in, true, nil
		}
	}
	in, err = b.inputs()
	return in, false, err
}

// storeInputs caches a workload's checked inputs in dir for later runs of
// this executable, replacing the entries of other executables.
func storeInputs(dir, name string, in batchInput) error {
	key, err := cacheKey(dir, name)
	if err != nil {
		return err
	}
	old, err := filepath.Glob(filepath.Join(dir, name+"-*"))
	if err != nil {
		return err
	}
	for _, path := range old {
		os.Remove(path) // a stale entry left behind is only disk space
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(in.pin)
	if err != nil {
		return err
	}
	// The pin goes last: an entry counts only once both files are in place.
	for _, f := range []struct {
		path string
		data []byte
	}{{key + ".wsdb", in.encoded}, {key + ".pin.json", raw}} {
		tmp := f.path + ".tmp"
		if err := os.WriteFile(tmp, f.data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, f.path); err != nil {
			return err
		}
	}
	return nil
}

// cacheKey returns the path prefix of a workload's cache entry in dir:
// dir/<workload>-<digest of the running executable>.
func cacheKey(dir, name string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("digest of %s: %w", exe, err)
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%x", name, h.Sum(nil)[:8])), nil
}

// servedInput is a served workload's prepared input: every request body of
// the endless churn, pre-encoded. Body i carries events [512i, 512i+512);
// the first prefixBodies bodies are the insert-only start, after which the
// stream repeats every len(bodies)-prefixBodies bodies.
type servedInput struct {
	bodies       [][]byte
	prefixBodies int
	// prefix is the warm-up prefix as events, for the traced core replay.
	prefix []stream.Event
	pin    pin
}

// body returns request body i of the endless stream.
func (in *servedInput) body(i int) []byte {
	if i < in.prefixBodies {
		return in.bodies[i]
	}
	period := len(in.bodies) - in.prefixBodies
	return in.bodies[in.prefixBodies+(i-in.prefixBodies)%period]
}

func (sp *servedSpec) inputs() (servedInput, error) {
	if sp.live >= sp.cycle || sp.live%batchSize != 0 || sp.cycle%batchSize != 0 || sp.warmup%batchSize != 0 {
		return servedInput{}, fmt.Errorf("served workload shape: live %d must be below cycle %d, and live, cycle and warmup multiples of %d", sp.live, sp.cycle, batchSize)
	}
	rng := rand.New(rand.NewSource(streamSeed))
	base := stream.InsertOnly(gen.HolmeKim(sp.hkVertices, sp.hkM, 0.8, rng))
	if len(base) < sp.cycle {
		return servedInput{}, fmt.Errorf("holme-kim sequence has %d edges, need %d", len(base), sp.cycle)
	}
	edge := func(t int) graph.Edge { return base[t%sp.cycle].Edge }
	// The insert-only start, then one full period of insert+delete steps.
	evs := make([]stream.Event, 0, sp.live+2*sp.cycle)
	for t := 0; t < sp.live; t++ {
		evs = append(evs, stream.Event{Op: stream.Insert, Edge: edge(t)})
	}
	for t := sp.live; t < sp.live+sp.cycle; t++ {
		evs = append(evs, stream.Event{Op: stream.Insert, Edge: edge(t)}, stream.Event{Op: stream.Delete, Edge: edge(t - sp.live)})
	}
	if sp.warmup > len(evs) {
		return servedInput{}, fmt.Errorf("warm-up of %d events exceeds the start plus one period (%d events)", sp.warmup, len(evs))
	}
	prefix := evs[:sp.warmup]
	oracle := int64(0)
	if sp.window > 0 {
		wc := exact.NewWindow(sp.window, wsd.TrianglePattern)
		for _, ev := range prefix {
			wc.Apply(ev)
		}
		oracle = wc.Count(wsd.TrianglePattern)
	} else {
		ec := exact.New(wsd.TrianglePattern)
		for _, ev := range prefix {
			ec.Apply(ev)
		}
		oracle = ec.Count(wsd.TrianglePattern)
	}
	in := servedInput{
		prefixBodies: sp.live / batchSize,
		prefix:       prefix,
		pin:          pin{Events: len(prefix), Fingerprint: fingerprint(prefix), Oracle: oracle, Policy: "heuristic"},
	}
	for lo := 0; lo < len(evs); lo += batchSize {
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, evs[lo:lo+batchSize]); err != nil {
			return servedInput{}, err
		}
		in.bodies = append(in.bodies, buf.Bytes())
	}
	return in, nil
}

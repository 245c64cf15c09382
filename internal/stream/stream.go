// Package stream models fully dynamic graph streams: sequences of edge
// insertion and deletion events (Section II of the paper), the deletion
// scenarios used in the evaluation (massive and light deletion, Section V-A),
// and the stream orderings of Section V-B(3) (natural, uniform-at-random,
// random BFS). It also provides a plain-text serialization so streams can be
// written to and replayed from files by the command-line tools, and a binary
// one (binary.go) for replay and the wire, decoded from in-memory bodies:
// frames map 1:1 onto batches by walking the body, with no streaming reader.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Op is the type of a stream event: an edge insertion or an edge deletion.
type Op int8

const (
	// Insert is the event (+, e).
	Insert Op = iota
	// Delete is the event (-, e).
	Delete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Insert:
		return "+"
	case Delete:
		return "-"
	}
	return fmt.Sprintf("Op(%d)", int8(o))
}

// Event is one element s(t) = (op, e_t) of an edge stream.
type Event struct {
	Op   Op
	Edge graph.Edge
}

// String implements fmt.Stringer.
func (ev Event) String() string { return ev.Op.String() + ev.Edge.String() }

// Stream is a finite prefix of an edge event stream.
type Stream []Event

// Counts returns the number of insertion and deletion events.
func (s Stream) Counts() (inserts, deletes int) {
	for _, ev := range s {
		if ev.Op == Insert {
			inserts++
		} else {
			deletes++
		}
	}
	return inserts, deletes
}

// Validate checks the feasibility constraint of Definition 1: an edge may
// only be inserted when absent and deleted when present. It returns the index
// of the first infeasible event, or -1 if the stream is feasible.
func (s Stream) Validate() int {
	present := make(map[graph.Edge]struct{})
	for i, ev := range s {
		if ev.Edge.IsLoop() {
			return i
		}
		_, ok := present[ev.Edge]
		switch ev.Op {
		case Insert:
			if ok {
				return i
			}
			present[ev.Edge] = struct{}{}
		case Delete:
			if !ok {
				return i
			}
			delete(present, ev.Edge)
		default:
			return i
		}
	}
	return -1
}

// FinalGraph replays the stream and returns the induced graph G(t) at the end.
func (s Stream) FinalGraph() *graph.AdjSet {
	g := graph.NewAdjSet()
	for _, ev := range s {
		if ev.Op == Insert {
			g.Add(ev.Edge)
		} else {
			g.Remove(ev.Edge)
		}
	}
	return g
}

// InsertOnly converts an edge sequence into a pure-insertion stream,
// preserving order and dropping duplicates and self-loops.
func InsertOnly(edges []graph.Edge) Stream {
	seen := make(map[graph.Edge]struct{}, len(edges))
	out := make(Stream, 0, len(edges))
	for _, e := range edges {
		if e.IsLoop() {
			continue
		}
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, Event{Op: Insert, Edge: e})
	}
	return out
}

// MassiveDeletion generates a fully dynamic stream under the massive deletion
// scenario of Section V-A: all edges are inserted in their given order, and
// each insertion is followed with probability alpha by a massive deletion
// event in which every edge currently in the graph is deleted independently
// with probability betaM. Deleted edges are not re-inserted (the paper's base
// edge sequences contain each edge once).
func MassiveDeletion(edges []graph.Edge, alpha, betaM float64, rng *rand.Rand) Stream {
	return MassiveDeletionWindow(edges, alpha, betaM, 0, rng)
}

// MassiveDeletionWindow is MassiveDeletion with mass-deletion events
// restricted to the first (1-tailFrac) fraction of insertions. At the paper's
// scale (multi-million-edge streams, alpha ~ 1/3M) millions of insertions
// always follow the last mass deletion and rebuild the graph; at reduced
// scale that rebuild window must be guaranteed explicitly or the final graph
// — the ARE reference point — degenerates to a handful of edges (see
// DESIGN.md, Substitutions).
func MassiveDeletionWindow(edges []graph.Edge, alpha, betaM, tailFrac float64, rng *rand.Rand) Stream {
	base := InsertOnly(edges)
	cutoff := len(base)
	if tailFrac > 0 && tailFrac < 1 {
		cutoff = int(float64(len(base)) * (1 - tailFrac))
	}
	triggers := make([]bool, len(base))
	for i := 0; i < cutoff; i++ {
		triggers[i] = rng.Float64() < alpha
	}
	return massiveDeletionAt(base, triggers, betaM, rng)
}

// MassiveDeletionEvents generates a massive-deletion stream with exactly
// events mass deletions at uniformly random insertion positions within the
// first (1-tailFrac) fraction of the stream. It realizes the same per-event
// semantics as MassiveDeletion with the event count fixed, which removes the
// realization variance of the Bernoulli event process: at reduced scale a
// Poisson draw of 0 vs 5 events changes a dataset's difficulty completely,
// whereas the paper's streams are long enough for the count to concentrate.
func MassiveDeletionEvents(edges []graph.Edge, events int, betaM, tailFrac float64, rng *rand.Rand) Stream {
	base := InsertOnly(edges)
	cutoff := len(base)
	if tailFrac > 0 && tailFrac < 1 {
		cutoff = int(float64(len(base)) * (1 - tailFrac))
	}
	triggers := make([]bool, len(base))
	for placed := 0; placed < events && cutoff > 0; {
		i := rng.Intn(cutoff)
		if !triggers[i] {
			triggers[i] = true
			placed++
		}
	}
	return massiveDeletionAt(base, triggers, betaM, rng)
}

// massiveDeletionAt emits the insertion stream with a mass deletion after
// every insertion index whose trigger is set: each live edge is deleted
// independently with probability betaM.
func massiveDeletionAt(base Stream, triggers []bool, betaM float64, rng *rand.Rand) Stream {
	out := make(Stream, 0, len(base)+len(base)/4)
	// live tracks the current edge set so deletions remain feasible. A slice
	// plus index map gives O(1) deletion by swap-remove while keeping the
	// "delete each live edge with probability betaM" semantics exact.
	live := make([]graph.Edge, 0, len(base))
	pos := make(map[graph.Edge]int, len(base))
	for i, ev := range base {
		out = append(out, ev)
		pos[ev.Edge] = len(live)
		live = append(live, ev.Edge)
		if !triggers[i] {
			continue
		}
		// Massive deletion event: independent coin per live edge. Iterate a
		// snapshot since we mutate live during removal.
		snapshot := make([]graph.Edge, len(live))
		copy(snapshot, live)
		for _, e := range snapshot {
			if rng.Float64() >= betaM {
				continue
			}
			j := pos[e]
			last := len(live) - 1
			live[j] = live[last]
			pos[live[j]] = j
			live = live[:last]
			delete(pos, e)
			out = append(out, Event{Op: Delete, Edge: e})
		}
	}
	return out
}

// LightDeletion generates a fully dynamic stream under the light deletion
// scenario of Section V-A: all edges are inserted in their given order, and
// each edge independently receives, with probability betaL, a deletion event
// placed at a uniformly random later position in the stream.
func LightDeletion(edges []graph.Edge, betaL float64, rng *rand.Rand) Stream {
	base := InsertOnly(edges)
	n := len(base)
	// For each edge chosen for deletion, draw the insertion slot it must
	// follow; the deletion is emitted immediately after a uniformly random
	// subsequent insertion (or at the very end).
	pending := make(map[int][]graph.Edge, n/4) // insertion index -> deletions emitted after it
	tail := make([]graph.Edge, 0)
	for i, ev := range base {
		if rng.Float64() >= betaL {
			continue
		}
		// Uniform position strictly after insertion i: choose an insertion
		// index j in (i, n]; j == n means after the final insertion.
		j := i + 1 + rng.Intn(n-i)
		if j >= n {
			tail = append(tail, ev.Edge)
		} else {
			pending[j] = append(pending[j], ev.Edge)
		}
	}
	out := make(Stream, 0, n+n/4)
	for j, ev := range base {
		if dels, ok := pending[j]; ok {
			out = append(out, eventsOf(dels)...)
		}
		out = append(out, ev)
	}
	out = append(out, eventsOf(tail)...)
	return out
}

func eventsOf(edges []graph.Edge) []Event {
	evs := make([]Event, len(edges))
	for i, e := range edges {
		evs[i] = Event{Op: Delete, Edge: e}
	}
	return evs
}

// UAROrder returns a copy of edges in uniform-at-random order (Section
// V-B(3)).
func UAROrder(edges []graph.Edge, rng *rand.Rand) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	copy(out, edges)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// RBFSOrder returns a copy of edges reordered by a random breadth-first
// exploration of the graph they induce (Section V-B(3)): starting from a
// random vertex, edges are emitted in BFS discovery order; disconnected
// components are visited from fresh random roots. This models bursty arrival
// patterns such as a celebrity joining a platform and followers connecting in
// quick succession.
func RBFSOrder(edges []graph.Edge, rng *rand.Rand) []graph.Edge {
	g := graph.NewAdjSet()
	for _, e := range edges {
		g.Add(e)
	}
	vertexSet := make(map[graph.VertexID]struct{})
	for _, e := range edges {
		vertexSet[e.U] = struct{}{}
		vertexSet[e.V] = struct{}{}
	}
	vertices := make([]graph.VertexID, 0, len(vertexSet))
	for v := range vertexSet {
		vertices = append(vertices, v)
	}
	// Deterministic base order before shuffling so output depends only on rng.
	slices.Sort(vertices)
	rng.Shuffle(len(vertices), func(i, j int) { vertices[i], vertices[j] = vertices[j], vertices[i] })

	visited := make(map[graph.VertexID]bool, len(vertices))
	emitted := make(map[graph.Edge]bool, len(edges))
	out := make([]graph.Edge, 0, len(edges))
	queue := make([]graph.VertexID, 0, len(vertices))

	for _, root := range vertices {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			// Shuffle neighbor visit order for randomness.
			nbrs := g.Neighbors(u)
			rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
			for _, v := range nbrs {
				e := graph.NewEdge(u, v)
				if !emitted[e] {
					emitted[e] = true
					out = append(out, e)
				}
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// Write serializes the stream in a line-oriented text format:
// one event per line, "+ u v" or "- u v".
func Write(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	for _, ev := range s {
		if _, err := fmt.Fprintf(bw, "%s %d %d\n", ev.Op, ev.Edge.U, ev.Edge.V); err != nil {
			return fmt.Errorf("stream: write: %w", err)
		}
	}
	return bw.Flush()
}

// Read parses a stream in the format produced by Write. Blank lines and lines
// starting with '#' are ignored. A bare "u v" line is treated as an
// insertion, so plain edge-list files load directly.
func Read(r io.Reader) (Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out Stream
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := Insert
		switch fields[0] {
		case "+":
			fields = fields[1:]
		case "-":
			op = Delete
			fields = fields[1:]
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("stream: line %d: expected 2 vertex ids, got %d fields", lineNo, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad vertex id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad vertex id %q: %w", lineNo, fields[1], err)
		}
		out = append(out, Event{Op: op, Edge: graph.NewEdge(graph.VertexID(u), graph.VertexID(v))})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return out, nil
}

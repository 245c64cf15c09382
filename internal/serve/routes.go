package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/window"
)

// backend is what one front end serves the shared routes over: a worker's own
// sharded counter (*Server) or a worker fleet (*Coordinator). Each method
// takes the raw request body (where the route has one) and returns the reply
// value or an error; reading the body, mapping errors to statuses and writing
// replies happen once, in handle.
type backend interface {
	ingest(body []byte, h http.Header) (any, error) // POST /ingest; h carries a worker's position stamp
	gather() (*gathered, error)                     // the estimates GET /estimate picks from
	flush() (any, error)                            // POST /flush
	snapshot() (any, error)                         // GET /snapshot: the blob as a json.RawMessage
	restore(body []byte) (any, error)               // POST /restore
	health() (reply any, ready bool)                // GET /healthz; not ready answers 503
	getPolicy() (any, error)                        // GET /policy
	putPolicy(body []byte) (any, error)             // PUT /policy
}

// gathered is one estimate read, before the query picks from it.
type gathered struct {
	mode     window.Spec        // the temporal mode the estimates were served under
	patterns []string           // served patterns, estimator order
	values   map[string]float64 // the estimate of every served pattern
	all      any                // the reply to a query without ?pattern=
	// one builds the reply to ?pattern=: the backend's position and shape
	// keys beside the pattern and its estimate.
	one func(pattern string, estimate float64) map[string]any
}

// route is one endpoint: its mux pattern ("METHOD /path") and handler.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// newHandler registers the shared routes over b, one per row, followed by
// the mode's own extra routes. limit caps request bodies.
func newHandler(b backend, limit int64, extra ...route) http.Handler {
	routes := append([]route{
		{"POST /ingest", handle(limit, http.StatusBadGateway, func(r *http.Request, body []byte) (any, error) {
			return b.ingest(body, r.Header)
		})},
		{"GET /estimate", handle(0, http.StatusBadGateway, func(r *http.Request, _ []byte) (any, error) {
			return estimate(b, r.URL.Query())
		})},
		{"POST /flush", handle(0, http.StatusServiceUnavailable, noBody(b.flush))},
		{"GET /snapshot", handle(0, http.StatusServiceUnavailable, noBody(b.snapshot))},
		{"POST /restore", handle(limit, http.StatusBadRequest, withBody(b.restore))},
		{"GET /healthz", healthz(b)},
		{"GET /policy", handle(0, http.StatusBadGateway, noBody(b.getPolicy))},
		{"PUT /policy", handle(limit, http.StatusServiceUnavailable, withBody(b.putPolicy))},
	}, extra...)
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	return mux
}

// healthz is the one readiness writer: the backend's report as JSON, under
// 503 while the backend is not ready.
func healthz(b backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reply, ready := b.health()
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(reply)
	}
}

// handle adapts one call to a handler. With limit > 0 the whole request body
// is read first, capped: MaxBytesReader (unlike a LimitReader) errors on
// overflow instead of silently truncating, so an oversized body is a 413 and
// a truncated one can never be half-parsed into a counter — a text stream cut
// mid-line would otherwise yield a shortened vertex id that parses as a valid
// (wrong) event. The reply is written as JSON (a json.RawMessage verbatim),
// an error as text under statusOf(err, fallback).
func handle(limit int64, fallback int, run call) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if limit > 0 {
			var err error
			if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit)); err != nil {
				code := http.StatusBadRequest
				var mbe *http.MaxBytesError
				if errors.As(err, &mbe) {
					code = http.StatusRequestEntityTooLarge
				}
				http.Error(w, err.Error(), code)
				return
			}
		}
		reply, err := run(r, body)
		if err != nil {
			http.Error(w, err.Error(), statusOf(err, fallback))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if raw, ok := reply.(json.RawMessage); ok {
			w.Write(raw)
			return
		}
		json.NewEncoder(w).Encode(reply)
	}
}

// call is what handle runs: the request and its body (nil for a route that
// reads none) in, the reply or an error out.
type call func(r *http.Request, body []byte) (any, error)

// noBody and withBody adapt a backend method to a call.
func noBody(f func() (any, error)) call {
	return func(*http.Request, []byte) (any, error) { return f() }
}

func withBody(f func([]byte) (any, error)) call {
	return func(_ *http.Request, body []byte) (any, error) { return f(body) }
}

// statusError is an error that names its own HTTP status: a client error a
// backend recognized (400), a stream-position gap (409), and the like.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func withStatus(code int, err error) error { return &statusError{code: code, err: err} }

// statusOf is the one error → status mapping of both modes: an error's own
// status, else the fleet's sentinel errors, else the route's fallback (what
// an unclassified failure of that route means — 502 for a failed worker read,
// 503 for a barrier or snapshot the service cannot take now, 400 for a
// refused restore).
func statusOf(err error, fallback int) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, cluster.ErrBadStream), errors.Is(err, cluster.ErrPolicyRejected):
		// The body was refused whole, before (or by) every worker: the
		// client's error, and nothing changed anywhere.
		return http.StatusBadRequest
	case errors.Is(err, cluster.ErrNoQuorum):
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrPartialRestore), errors.Is(err, cluster.ErrPartialSwap),
		errors.Is(err, cluster.ErrCatchUpIncomplete):
		// Some workers moved and some did not: a gateway error the operator
		// retries until the fleet heals.
		return http.StatusBadGateway
	}
	return fallback
}

// estimate is the one GET /estimate path of both modes. The query is checked
// before the backend is touched — an unknown parameter, a malformed pattern
// name or a malformed window/halflife is a 400 that must not cost a coordinator
// N worker round trips — then the estimates are gathered, any asserted
// temporal mode is matched against the one they were served under (a client
// asking a whole-stream deployment for a windowed count, or vice versa, would
// otherwise silently read a number with different semantics), and ?pattern=
// picks one served pattern. The pattern goes through the same parser as the
// -pattern flag, so every alias spelling that configures a deployment also
// queries it; an unserved name is a 400 so a misconfigured client cannot
// silently read the wrong count.
func estimate(b backend, q url.Values) (any, error) {
	asked, asserted, err := parseEstimateQuery(q)
	if err != nil {
		return nil, withStatus(http.StatusBadRequest, err)
	}
	var pattern string
	if name := q.Get("pattern"); name != "" {
		k, err := cli.ParsePattern(name)
		if err != nil {
			return nil, withStatus(http.StatusBadRequest, fmt.Errorf("serve: %v", err))
		}
		pattern = k.String()
	}
	g, err := b.gather()
	if err != nil {
		return nil, err
	}
	if asserted && asked != g.mode {
		return nil, withStatus(http.StatusBadRequest, fmt.Errorf("serve: this deployment serves %s estimates, query asked for %s", g.mode, asked))
	}
	if pattern == "" {
		return g.all, nil
	}
	v, ok := g.values[pattern]
	if !ok {
		return nil, withStatus(http.StatusBadRequest, fmt.Errorf("serve: pattern %q is not served (served: %s)", pattern, g.patterns))
	}
	return g.one(pattern, v), nil
}

// parseEstimateQuery validates an /estimate query's parameter set and parses
// its temporal assertion. Only pattern, window, and halflife are recognized —
// an unknown parameter is an error rather than silently ignored, so a typo
// (?windw=500) cannot masquerade as a whole-stream read. When window or
// halflife are present, the parsed spec is returned with asserted=true
// (?window=inf asserts whole-stream explicitly); absent, the query accepts
// whatever mode the deployment serves.
func parseEstimateQuery(q url.Values) (asked window.Spec, asserted bool, err error) {
	for key := range q {
		switch key {
		case "pattern", "window", "halflife":
		default:
			return asked, false, fmt.Errorf("serve: unknown query parameter %q (recognized: pattern, window, halflife)", key)
		}
	}
	_, hasW := q["window"]
	_, hasH := q["halflife"]
	if !hasW && !hasH {
		return asked, false, nil
	}
	asked, err = window.ParseSpec(q.Get("window"), q.Get("halflife"))
	if err != nil {
		return asked, false, fmt.Errorf("serve: %w", err)
	}
	return asked, true, nil
}

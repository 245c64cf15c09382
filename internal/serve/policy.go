package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	wsd "repro"

	"repro/internal/core"
	"repro/internal/policy"
)

// Sources of the active policy, reported by GET /policy: how the running
// weight function got there.
const (
	policySourceBoot     = "boot"     // Config.Policy (wsdserve -policy)
	policySourceSwap     = "swap"     // PUT /policy on the live counter
	policySourceSnapshot = "snapshot" // revived from a restored snapshot
)

// policyStatus is the server's record of the active learned policy.
type policyStatus struct {
	ID         string
	Dim        int
	Source     string
	Provenance *policy.Provenance // nil when the artifact is not at hand (snapshot-revived)
}

// id renders the status for /healthz: the policy content ID, or "heuristic".
func (p *policyStatus) id() string {
	if p == nil {
		return "heuristic"
	}
	return p.ID
}

func statusFromArtifact(a *policy.Artifact, source string) *policyStatus {
	prov := a.Provenance
	return &policyStatus{ID: a.ID(), Dim: len(a.Policy.W), Source: source, Provenance: &prov}
}

func statusFromParams(p *core.PolicyParams, source string) *policyStatus {
	if p == nil {
		return nil
	}
	return &policyStatus{ID: p.ID, Dim: len(p.W), Source: source}
}

// shadowRun is a candidate-policy evaluation: a second ensemble, configured
// like the live one but under the candidate policy, fed every event the live
// counter accepts from the attach point on. Both ensembles share the seed, so
// they draw identical rank uniforms and the estimate delta isolates the
// weight function — the comparison an operator reads before promoting.
type shadowRun struct {
	art        *policy.Artifact
	ens        *wsd.ShardedCounter
	attachedAt int64 // live stream position when the shadow attached

	// errMu guards err: the first shadow ingest failure, reported on
	// GET /policy/shadow (a failed shadow never fails live ingestion).
	errMu sync.Mutex
	err   error
}

func (sh *shadowRun) fail(err error) {
	sh.errMu.Lock()
	if sh.err == nil {
		sh.err = err
	}
	sh.errMu.Unlock()
}

func (sh *shadowRun) failure() error {
	sh.errMu.Lock()
	defer sh.errMu.Unlock()
	return sh.err
}

// artifact decodes a policy artifact request body. The artifact's pattern
// must match the server's primary pattern — the MDP state vector is
// pattern-sized, so a mismatched policy would be fed garbage. Either failure
// is a 400.
func (s *Server) artifact(body []byte) (*policy.Artifact, error) {
	art, err := policy.Decode(body)
	if err != nil {
		return nil, withStatus(http.StatusBadRequest, err)
	}
	if art.Pattern != s.patterns[0] {
		return nil, withStatus(http.StatusBadRequest,
			fmt.Errorf("serve: policy artifact is trained for %s, server's primary pattern is %s", art.Pattern, s.patterns[0]))
	}
	return art, nil
}

// getPolicy serves the active policy's identity and provenance, or the
// heuristic marker when no learned policy is running.
func (s *Server) getPolicy() (any, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reply := map[string]any{
		"policy":   s.policy.id(),
		"pattern":  s.patterns[0].String(),
		"position": s.ens.Processed(),
	}
	if s.policy != nil {
		reply["id"] = s.policy.ID
		reply["dim"] = s.policy.Dim
		reply["source"] = s.policy.Source
		if s.policy.Provenance != nil {
			reply["provenance"] = s.policy.Provenance
		}
	} else {
		reply["weight"] = "wsd-h"
	}
	if sh := s.shadow; sh != nil {
		reply["shadow"] = sh.art.ID()
	}
	return reply, nil
}

// putPolicy hot-swaps the live counter's weight function to the artifact in
// the request body. The swap runs under the ensemble's quiesce barrier: every
// in-flight batch is drained first, the reservoir state is untouched, and the
// new weights affect only future events — the estimator stays unbiased across
// the swap. A successful swap cancels any running shadow evaluation (its
// comparison target just changed).
func (s *Server) putPolicy(body []byte) (any, error) {
	art, err := s.artifact(body)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if err := wsd.SwapPolicy(s.ens, art.Policy); err != nil {
		s.mu.Unlock()
		return nil, withStatus(http.StatusInternalServerError, err)
	}
	s.policy = statusFromArtifact(art, policySourceSwap)
	oldShadow := s.shadow
	s.shadow = nil
	position := s.ens.Processed()
	s.mu.Unlock()
	if oldShadow != nil {
		oldShadow.ens.Close()
	}
	reply := map[string]any{
		"swapped":  true,
		"id":       art.ID(),
		"position": position,
	}
	if oldShadow != nil {
		reply["shadow_stopped"] = oldShadow.art.ID()
	}
	return reply, nil
}

// errNoShadow answers the shadow report and stop routes when nothing runs.
var errNoShadow = withStatus(http.StatusNotFound, errors.New("serve: no shadow evaluation is running"))

// startShadow attaches a candidate-policy shadow counter: a second ensemble
// with the live configuration plus the candidate policy, fed every event
// accepted from here on. One shadow at a time — stop (or promote) the
// current one first (409).
func (s *Server) startShadow(body []byte) (any, error) {
	art, err := s.artifact(body)
	if err != nil {
		return nil, err
	}
	// Build the candidate ensemble outside the locks; only the attach needs
	// them. Mirrors New: the candidate policy rides on a clipped copy of the
	// configured options, so seed, combiner, budget mode, and partition slot
	// all match the live counter.
	opts := append(s.cfg.Options[:len(s.cfg.Options):len(s.cfg.Options)], wsd.WithPolicy(art.Policy))
	ens, err := wsd.NewShardedMultiCounter(s.patterns, s.cfg.M, s.cfg.Shards, opts...)
	if err != nil {
		return nil, err // the route's fallback: 400
	}
	s.posMu.Lock()
	s.mu.Lock()
	if s.shadow != nil {
		active := s.shadow.art.ID()
		s.mu.Unlock()
		s.posMu.Unlock()
		ens.Close()
		return nil, withStatus(http.StatusConflict,
			fmt.Errorf("serve: a shadow evaluation of policy %s is already running; DELETE /policy/shadow first", active))
	}
	sh := &shadowRun{art: art, ens: ens, attachedAt: s.streamPos.Load()}
	s.shadow = sh
	s.mu.Unlock()
	s.posMu.Unlock()
	return map[string]any{
		"shadow":      true,
		"id":          art.ID(),
		"attached_at": sh.attachedAt,
	}, nil
}

// shadowReport serves the live-vs-shadow comparison: both ensembles are
// flushed (so the estimates reflect every accepted event) and reported side
// by side with their relative delta. The exact-oracle scoring of a candidate
// runs offline on a seeded replay (wsdbench -exp policy); this endpoint is
// the online comparison over the production stream, where no oracle exists.
func (s *Server) shadowReport() (any, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh := s.shadow
	if sh == nil {
		return nil, errNoShadow
	}
	if err := s.ens.Flush(); err != nil {
		return nil, err
	}
	if err := sh.ens.Flush(); err != nil {
		return nil, err
	}
	live, cand := s.ens.Estimate(), sh.ens.Estimate()
	reply := map[string]any{
		"id":          sh.art.ID(),
		"live_policy": s.policy.id(),
		"attached_at": sh.attachedAt,
		"live":        map[string]any{"estimate": live, "position": s.ens.Processed()},
		"shadow":      map[string]any{"estimate": cand, "position": sh.ens.Processed()},
	}
	if live != 0 {
		reply["delta_relative"] = (cand - live) / live
	}
	if err := sh.failure(); err != nil {
		reply["error"] = err.Error()
	}
	return reply, nil
}

// stopShadow detaches and stops the shadow counter, reporting the final
// comparison.
func (s *Server) stopShadow() (any, error) {
	s.posMu.Lock()
	s.mu.Lock()
	sh := s.shadow
	s.shadow = nil
	s.mu.Unlock()
	s.posMu.Unlock()
	if sh == nil {
		return nil, errNoShadow
	}
	final := sh.ens.Close()
	s.mu.RLock()
	live := s.ens.Estimate()
	s.mu.RUnlock()
	reply := map[string]any{
		"stopped":     true,
		"id":          sh.art.ID(),
		"attached_at": sh.attachedAt,
		"live":        live,
		"shadow":      final,
	}
	if err := sh.failure(); err != nil {
		reply["error"] = err.Error()
	}
	return reply, nil
}

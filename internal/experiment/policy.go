package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/policy"
)

// PolicyLifecycleResult is the grid behind the policy-promotion experiment:
// the candidate learned policy scored beside the live heuristic on the same
// seeded replay, against the exact oracle.
type PolicyLifecycleResult struct {
	*Table
	// Heuristic and Learned map scenario name -> ARE for the two weight
	// functions; ID is the candidate artifact's content identity.
	Heuristic map[string]float64
	Learned   map[string]float64
	ID        string
}

// PolicyLifecycle is the offline half of the policy promotion runbook: the
// online /policy/shadow endpoint compares a candidate against the live
// counter on the production stream, where no ground truth exists; this
// experiment replays the same seeded stream under both weight functions and
// scores each against the exact count. A candidate is promotable when its ARE
// beats the heuristic's here — the comparative evidence an operator wants
// before PUT /policy.
func PolicyLifecycle(prof Profile) (*PolicyLifecycleResult, error) {
	test := mustDataset("cit-PT")
	scenarios := []Scenario{MassiveDefault(), LightDefault()}
	var rows []row
	for _, sc := range scenarios {
		rows = append(rows, row{label: fmt.Sprintf("%v", sc.Kind), stream: StreamFor(test, sc, prof.Seed),
			pattern: pattern.Triangle, m: test.DefaultM, policy: learned(test, pattern.Triangle, sc, prof)})
	}
	runs, err := grid(prof, rows, algoCells(AlgoWSDH, AlgoWSDL))
	if err != nil {
		return nil, err
	}
	res := &PolicyLifecycleResult{
		Table: &Table{ID: "Policy", Title: "candidate policy vs live heuristic on cit-PT (ARE vs exact, triangles)",
			Header: []string{"scenario", "weight", "ARE", "MARE"}},
		Heuristic: make(map[string]float64),
		Learned:   make(map[string]float64),
	}
	for i, r := range rows {
		pol, err := r.policy(core.AggMax)
		if err != nil {
			return nil, err
		}
		// The artifact identity ties this scorecard to the exact bytes an
		// operator would PUT to /policy (provenance is display-only metadata;
		// the ID hashes the parameters).
		res.ID = policy.ParamsID(pol.W, pol.B)
		h, l := runs[i][0], runs[i][1]
		res.Heuristic[r.label], res.Learned[r.label] = h.ARE.Mean, l.ARE.Mean
		res.AddRow(r.label, "wsd-h (live)", pct(h.ARE.Mean), pct(h.MARE.Mean))
		res.AddRow(r.label, "wsd-l "+res.ID, pct(l.ARE.Mean), pct(l.MARE.Mean))
	}
	return res, nil
}

package experiment

// Entry is one registered paper artifact: the id wsdbench and the root
// benchmarks know it by, and the function regenerating its table.
type Entry struct {
	ID  string
	Run func(Profile) (*Table, error)
}

// entry adapts any result-returning experiment to a registry entry.
func entry[R interface{ GetTable() *Table }](id string, run func(Profile) (R, error)) Entry {
	return Entry{ID: id, Run: func(p Profile) (*Table, error) {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		return r.GetTable(), nil
	}}
}

// Registry returns every paper table, figure and ablation in paper order.
// It is the one list both cmd/wsdbench and the root BenchmarkArtifacts read.
func Registry() []Entry {
	return []Entry{
		entry("table2", Table2),
		entry("table3", Table3),
		entry("table4", Table4),
		entry("table5", Table5),
		entry("table6", Table6),
		entry("table7", Table7),
		entry("table8", Table8),
		entry("table9", Table9),
		entry("table10", Table10),
		entry("table11", Table11),
		entry("table12", Table12),
		entry("table13", Table13),
		entry("fig1", Fig1),
		entry("fig2a", Fig2a),
		entry("fig2b", Fig2b),
		entry("fig2c", Fig2c),
		entry("fig2d", Fig2d),
		entry("fig3", Fig3),
		entry("fig4a", Fig4a),
		entry("fig4b", Fig4b),
		entry("fig4c", Fig4c),
		entry("fig4d", Fig4d),
		entry("fig5", Fig5),
		entry("ablation-weights", WeightFamilies),
		entry("ablation-wrs", WRSAlphaSweep),
		entry("ablation-ddpg", DDPGAblation),
		entry("policy", PolicyLifecycle),
	}
}

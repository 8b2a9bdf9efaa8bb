package experiment

// Runner regenerates one table or figure.
type Runner func(Options) *Table

// registry maps experiment ids (as used by `cmd/experiments -run`) to
// their runners, in the order DESIGN.md lists them.
var registry = []struct {
	ID     string
	Desc   string
	Runner Runner
}{
	{"fig3", "feasibility: 0s/1s in B vs n", Fig3},
	{"fig4", "gamma over the (p, rho) grid + scalability bounds", Fig4},
	{"fig5", "monotonicity of f1/f2 in n", Fig5},
	{"fig6", "tagID distributions T1/T2/T3", Fig6},
	{"fig7a", "BFCE accuracy vs n under T1/T2/T3", Fig7a},
	{"fig7b", "BFCE accuracy vs eps", Fig7b},
	{"fig7c", "BFCE accuracy vs delta", Fig7c},
	{"fig8", "CDF of repeated BFCE estimates", Fig8},
	{"fig9", "accuracy comparison BFCE/ZOE/SRC", Fig9},
	{"fig10", "execution-time comparison BFCE/ZOE/SRC", Fig10},
	{"overhead", "closed-form vs measured BFCE overhead", Overhead},
	{"ablation-k", "hash count k sweep", AblationK},
	{"ablation-w", "vector length w sweep", AblationW},
	{"ablation-c", "lower-bound coefficient c sweep", AblationC},
	{"ablation-rough", "rough-phase slot count sweep", AblationRoughSlots},
	{"ablation-hash", "tag-side hash mode x distribution", AblationHashMode},
	{"ablation-noise", "channel noise sweep", AblationNoise},
	{"ablation-zoecost", "ZOE vs seed-free ZOE vs BFCE: cost attribution", AblationZOECost},
	{"ablation-capture", "capture effect: collision-counting vs bit-slot protocols", AblationCapture},
	{"faults", "channel-fault severity sweep: BFCE accuracy/saturation, with and without retries", Faults},
	{"bakeoff", "all ten estimators side by side", Bakeoff},
	{"crossover", "exact C1G2 inventory vs BFCE estimation", InventoryCrossover},
	{"monitoring", "warm-started monitoring + differential snapshots under drift", Monitoring},
	{"missing", "missing-tag identification vs round budget", MissingTags},
	{"guarantee", "empirical (eps,delta) violation rates", Guarantee},
}

// IDs returns the registered experiment ids in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Describe returns the one-line description for an id ("" if unknown).
func Describe(id string) string {
	for _, e := range registry {
		if e.ID == id {
			return e.Desc
		}
	}
	return ""
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e.Runner, true
		}
	}
	return nil, false
}

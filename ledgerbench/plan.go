package main

import (
	"fmt"
	"math"

	"rfidest"
	"rfidest/internal/xrand"
)

// workers is the closed-loop concurrency of the in-process workloads: as
// many workers as the reference host has CPUs.
const workers = 2

// clients is serve-rw's: one HTTP client. Two clients switched between two
// throughput levels within a run, and ten runs spread by 0.31 against
// 0.04–0.09 with one (README.md has the figures).
const clients = 1

// Domain tags separating the streams drawn from the workload seed.
const (
	tagN = iota + 0x1ed9e000
	tagSysSeed
	tagOrder
	tagRotation
	tagSalt
	tagWrite
	tagPaperHash
	tagMonitorN
	tagReservoir
	tagClient
)

// workloadNames lists the workloads in the order the README documents them.
var workloadNames = []string{"bfce-synth", "baselines-synth", "bfce-taglevel", "serve-rw"}

// systemPlan is one deployment a workload runs against; it mirrors the
// rfidest.NewSystem options the fixture builds it with.
type systemPlan struct {
	N         int
	Seed      uint64
	Synthetic bool
	PaperHash bool
}

// options returns the NewSystem options that build sp.
func (sp systemPlan) options() []rfidest.SystemOption {
	opts := []rfidest.SystemOption{rfidest.WithSeed(sp.Seed)}
	if sp.Synthetic {
		opts = append(opts, rfidest.WithSynthetic())
	}
	if sp.PaperHash {
		opts = append(opts, rfidest.WithPaperTagHash())
	}
	return opts
}

// op is one closed-loop operation: a System.Run (in-process workloads), a
// /v1/estimate read or a /v1/monitor write (serve-rw).
type op struct {
	System    int
	Estimator string
	Salt      uint64
	Write     bool
}

// plan is every input of a workload, derived from the seed alone.
type plan struct {
	workload  string
	seed      uint64
	systems   []systemPlan // serve-rw: the 16 read specs, then one monitor spec per client
	order     []int        // the cycle of read systems every worker walks, offset per worker
	protocols []string     // rotation; {"BFCE"} outside baselines-synth
	protoIdx  map[string]int
	eps       float64
	delta     float64
	workers   int // closed-loop workers (serve-rw: HTTP clients), each with its own op stream
	// warm is the warm-up ops per worker run in every set-up: what the heap
	// and the caches need to reach steady state, and no more, so that
	// setup_s prices set-up rather than re-measuring throughput.
	warm int
}

func newPlan(workload string, seed uint64) (*plan, error) {
	p := &plan{workload: workload, seed: seed, protocols: []string{"BFCE"}, eps: 0.05, delta: 0.05, workers: workers}
	reads := 0
	switch workload {
	case "bfce-synth":
		p.systems = stratified(seed, 64, 3, 6, true)
		p.warm = 64 // ~8 GC cycles across both workers at ~250 KB allocated per op
	case "baselines-synth":
		p.systems = stratified(seed, 64, 3, 6, true)
		p.protocols = nil
		for _, name := range rfidest.Estimators() {
			if name != "BFCE" {
				p.protocols = append(p.protocols, name)
			}
		}
		rng := xrand.NewStream(seed, tagRotation)
		rng.Shuffle(len(p.protocols), func(i, j int) { p.protocols[i], p.protocols[j] = p.protocols[j], p.protocols[i] })
		p.warm = 4 * len(p.protocols) // every protocol's path, eight times across both workers
	case "bfce-taglevel":
		p.systems = stratified(seed, 64, 3, 5, false)
		// Half the systems run the paper's literal tag hash: one of each
		// adjacent pair of strata, so both hash modes span the n range.
		for i := 0; i < len(p.systems); i += 2 {
			p.systems[i+int(xrand.Combine(seed, tagPaperHash, uint64(i))&1)].PaperHash = true
		}
		// Every system once: op cost grows with n, so a warm-up over only
		// some of the systems would cost what the seed happens to pick.
		p.warm = len(p.systems) / workers
	case "serve-rw":
		p.systems = stratified(seed, 16, 3, 6, true)
		reads = 16
		// Each client's monitor watches a mid-sized deployment, so write
		// cost does not swing with the seed.
		p.workers = clients
		for w, sp := range stratified(xrand.Combine(seed, tagMonitorN), clients, 4, 5, true) {
			sp.Seed = xrand.Combine(seed, tagSysSeed, uint64(16+w)) | 1
			p.systems = append(p.systems, sp)
		}
		p.eps, p.delta = 0.1, 0.1
		p.warm = 32 // each client walks the 16-spec cycle twice, filling the system cache
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if reads == 0 {
		reads = len(p.systems)
	}
	p.order = xrand.NewStream(seed, tagOrder).Perm(reads)
	p.protoIdx = make(map[string]int, len(p.protocols))
	for i, name := range p.protocols {
		p.protoIdx[name] = i
	}
	return p, nil
}

// cell indexes one protocol on one system in a shares table.
func (p *plan) cell(estimator string, system int) int {
	return p.protoIdx[estimator]*len(p.systems) + system
}

// stratified draws k systems with n log-uniform over [10^lo, 10^hi), one
// per equal-width stratum of log n. Stratifying keeps the workload's mix of
// small and large deployments — and so its cost — nearly the same for
// every seed, while the seed still moves every n.
func stratified(seed uint64, k int, lo, hi float64, synthetic bool) []systemPlan {
	out := make([]systemPlan, k)
	for i := range out {
		u := float64(xrand.Combine(seed, tagN, uint64(i))>>11) / (1 << 53)
		out[i] = systemPlan{
			N:         int(math.Round(math.Pow(10, lo+(hi-lo)*(float64(i)+u)/float64(k)))),
			Seed:      xrand.Combine(seed, tagSysSeed, uint64(i)) | 1,
			Synthetic: synthetic,
		}
	}
	return out
}

// op returns worker w's i-th operation. Workers walk the same system cycle
// and protocol rotation, spread evenly over it; salts are fresh per (w, i).
// serve-rw writes one op in every block of four, at a seeded position, so
// each client keeps the 3:1 read-to-write mix on its own op stream.
func (p *plan) op(w, i int) op {
	k, r := len(p.order), len(p.protocols)
	o := op{
		System:    p.order[(i+w*k/p.workers)%k],
		Estimator: p.protocols[(i+w*r/p.workers)%r],
		Salt:      xrand.Combine(p.seed, tagSalt, uint64(w), uint64(i)),
	}
	if p.workload == "serve-rw" {
		o.Write = xrand.Combine(p.seed, tagWrite, uint64(w), uint64(i/4))%4 == uint64(i%4)
		if o.Write {
			o.System = len(p.order) + w
		}
	}
	return o
}

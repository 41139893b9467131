// Topology studies of the run subcommand: -topology executes the
// two-level hierarchical schedule of one collective on a machine with
// per-link-class cost profiles and verifies it, and
// -crossover-topology sweeps (n, b, inter/intra ratio) to tabulate
// where the hierarchical composition overtakes the best flat schedule
// under the topology clock.
//
//	bruckctl run -op index     -topology 4x4 -b 64
//	bruckctl run -op concat    -topology 4,4,3 -b 16
//	bruckctl run -op allreduce -topology 4x4:29e-6,0.117e-6/29e-5,0.117e-5 -b 64
//	bruckctl run -op index -crossover-topology
package main

import (
	"fmt"

	"bruck/internal/cli"
	"bruck/internal/collective"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/sweep"
)

// topoFlatBest compiles the best flat arm of the spec's operation under
// the topology clock: the Bruck index over the power-of-two radices plus
// k+1 and n for the index, the circulant schedule for the
// concatenation, and ring against Bruck for the allreduce.
func topoFlatBest(e *mpsim.Engine, s collective.Spec, topo *costmodel.Topology) (*collective.Plan, error) {
	arms := []collective.Spec{s}
	switch s.Op {
	case collective.OpIndex:
		arms = nil
		for _, r := range sweep.RadixArms(e.N(), e.Ports()) {
			s.Index.Radix = r
			arms = append(arms, s)
		}
	case collective.OpAllReduce:
		s.Reduce.Algorithm = collective.ReduceBruck
		arms = append(arms, s)
	}
	var best *collective.Plan
	for _, arm := range arms {
		pl, err := collective.Compile(e, mpsim.WorldGroup(e.N()), arm)
		if err != nil {
			return nil, err
		}
		if best == nil || pl.TimeTopo(topo) < best.TimeTopo(topo) {
			best = pl
		}
	}
	return best, nil
}

// runTopology executes one collective hierarchically on the machine
// the -topology spec describes, through the oracle, and reports the
// per-phase and per-level schedule against the best flat arm.
func runTopology(p params) ([]*cli.Table, error) {
	topo, err := costmodel.ParseTopology(p.topology)
	if err != nil {
		return nil, err
	}
	n := topo.N()
	e, err := p.engine(n, mpsim.WithTopology(topo.GroupAssignment()))
	if err != nil {
		return nil, err
	}
	flatSpec, fill, err := p.spec(n)
	if err != nil {
		return nil, err
	}
	spec := flatSpec
	spec.Hierarchical, spec.Topology = true, topo
	hier, res, err := exercise(e, spec, fill)
	if err != nil {
		return nil, err
	}
	flat, err := topoFlatBest(e, flatSpec, topo)
	if err != nil {
		return nil, err
	}
	hierSec, flatSec := hier.TimeTopo(topo), flat.TimeTopo(topo)
	winner := "flat"
	if hierSec < flatSec {
		winner = "hier"
	}

	kv := cli.KV("topology-run")
	kv.Add("op", p.op)
	kv.Add("n", n)
	kv.Add("k", p.k)
	kv.Add("b", p.b)
	kv.Add("topology", topo.Spec())
	kv.Add("intra_profile", topo.Intra.Name)
	kv.Add("inter_profile", topo.Inter.Name)
	kv.Add("chaos_seed", p.chaosSeed)
	kv.Add("c1", res.C1)
	kv.Add("c2", res.C2)
	if res.Intra != nil && res.Inter != nil {
		kv.Add("intra_c1", res.Intra.C1)
		kv.Add("intra_c2", res.Intra.C2)
		kv.Add("intra_c1_lower_bound", res.Intra.C1LowerBound)
		kv.Add("intra_c2_lower_bound", res.Intra.C2LowerBound)
		kv.Add("inter_c1", res.Inter.C1)
		kv.Add("inter_c2", res.Inter.C2)
		kv.Add("inter_c1_lower_bound", res.Inter.C1LowerBound)
		kv.Add("inter_c2_lower_bound", res.Inter.C2LowerBound)
	}
	kv.Add("model_hier", costmodel.Duration(hierSec))
	kv.Add("model_flat_best", costmodel.Duration(flatSec))
	kv.Add("flat_alg", flat.Algorithm())
	kv.Add("winner", winner)
	cp, err := hier.CriticalPathTopo(topo)
	if err != nil {
		return nil, err
	}
	kv.Add("critical_path_topology", costmodel.Duration(cp))
	pt := &cli.Table{Name: "topology-phases", Columns: []string{"name", "class", "first", "rounds", "c2"}}
	for _, ph := range hier.Phases() {
		pt.AddRow(ph.Name, costmodel.LinkClass(ph.Class).String(), fmt.Sprint(ph.First), fmt.Sprint(ph.Rounds), fmt.Sprint(ph.C2))
	}
	return []*cli.Table{kv, pt}, nil
}

// runTopoCrossover sweeps the flat-vs-hierarchical decision across
// machine sizes, block sizes and inter/intra cost ratios (balanced
// sqrt(n) groups, SP-1 intra links, modeled under the topology clock)
// and reports where each shape wins, plus the per-(n, ratio) crossover
// block size.
func runTopoCrossover(p params) ([]*cli.Table, error) {
	rows, err := sweep.TopoCrossoverTable(p.op, []int{8, 16, 32, 64}, []int{1, 16, 256, 4096}, []float64{2, 5, 10, 20}, p.k, costmodel.SP1)
	if err != nil {
		return nil, err
	}
	return sweep.TopoReport(rows), nil
}

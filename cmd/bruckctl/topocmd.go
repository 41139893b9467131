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
func runTopology(rp *reporter, p params) error {
	w := rp.text()
	topo, err := costmodel.ParseTopology(p.topology)
	if err != nil {
		return err
	}
	n, k, b := topo.N(), p.k, p.b
	e, err := p.engine(n, mpsim.WithTopology(topo.GroupAssignment()))
	if err != nil {
		return err
	}
	flatSpec, fill, err := p.spec(n)
	if err != nil {
		return err
	}
	spec := flatSpec
	spec.Hierarchical, spec.Topology = true, topo
	hier, res, err := exercise(e, spec, fill)
	if err != nil {
		return err
	}
	flat, err := topoFlatBest(e, flatSpec, topo)
	if err != nil {
		return err
	}
	hierSec, flatSec := hier.TimeTopo(topo), flat.TimeTopo(topo)
	winner := "flat"
	if hierSec < flatSec {
		winner = "hier"
	}

	fmt.Fprintf(w, "hierarchical %s: n=%d k=%d b=%d topology=%s transport=%s\n",
		p.op, n, k, b, topo.Spec(), e.Transport())
	fmt.Fprintf(w, "  intra profile: %s   inter profile: %s\n", topo.Intra.Name, topo.Inter.Name)
	fmt.Fprintf(w, "  phases (name class first rounds c2):\n")
	pt := &cli.Table{Name: "topology-phases", Columns: []string{"name", "class", "first", "rounds", "c2"}}
	for _, ph := range hier.Phases() {
		class := costmodel.LinkClass(ph.Class).String()
		fmt.Fprintf(w, "    %-16s %-5s %4d %6d %8d\n", ph.Name, class, ph.First, ph.Rounds, ph.C2)
		pt.AddRow(ph.Name, class, fmt.Sprint(ph.First), fmt.Sprint(ph.Rounds), fmt.Sprint(ph.C2))
	}
	fmt.Fprintf(w, "  total:  C1 = %d rounds, C2 = %d bytes\n", res.C1, res.C2)
	if res.Intra != nil && res.Inter != nil {
		fmt.Fprintf(w, "  intra:  C1 = %d (bound %d), C2 = %d (bound %d)\n",
			res.Intra.C1, res.Intra.C1LowerBound, res.Intra.C2, res.Intra.C2LowerBound)
		fmt.Fprintf(w, "  inter:  C1 = %d (bound %d), C2 = %d (bound %d)\n",
			res.Inter.C1, res.Inter.C1LowerBound, res.Inter.C2, res.Inter.C2LowerBound)
	}
	fmt.Fprintf(w, "  model time hier (topology clock): %v\n", costmodel.Duration(hierSec))
	fmt.Fprintf(w, "  model time best flat [%s]:        %v\n", flat.Algorithm(), costmodel.Duration(flatSec))
	fmt.Fprintf(w, "  winner: %s\n", winner)
	if cp, err := costmodel.CriticalPathTopo(topo, n, e.Metrics().Events()); err == nil {
		fmt.Fprintf(w, "  critical path (topology clock):   %v\n", costmodel.Duration(cp))
	}

	kv := cli.KV("topology-run")
	kv.Add("op", p.op)
	kv.Add("n", n)
	kv.Add("k", k)
	kv.Add("b", b)
	kv.Add("topology", topo.Spec())
	kv.Add("transport", e.Transport())
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
	rp.add(kv)
	rp.add(pt)
	return nil
}

// runTopoCrossover sweeps the flat-vs-hierarchical decision across
// machine sizes, block sizes and inter/intra cost ratios and reports
// where each shape wins, plus the per-(n, ratio) crossover block size.
func runTopoCrossover(rp *reporter, p params) error {
	w := rp.text()
	op := p.op
	ns := []int{8, 16, 32, 64}
	sizes := []int{1, 16, 256, 4096}
	ratios := []float64{2, 5, 10, 20}
	rows, err := sweep.TopoCrossoverTable(op, ns, sizes, ratios, p.k, costmodel.SP1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology crossover study: op=%s k=%d groups=balanced(sqrt) intra=SP-1 (modeled, topology clock)\n", op, p.k)
	fmt.Fprint(w, sweep.RenderTopoRows(rows))
	st := &cli.Table{Name: "topology-crossover", Columns: []string{
		"op", "n", "k", "b", "shape", "ratio", "flat_c1", "flat_c2", "flat_r", "hier_c1", "hier_c2", "flat_us", "hier_us", "winner",
	}}
	for _, r := range rows {
		winner := "flat"
		if r.HierWins {
			winner = "hier"
		}
		st.AddRow(r.Op, fmt.Sprint(r.N), fmt.Sprint(r.K), fmt.Sprint(r.B), r.Shape,
			fmt.Sprintf("%g", r.Ratio), fmt.Sprint(r.FlatC1), fmt.Sprint(r.FlatC2),
			fmt.Sprint(r.FlatR), fmt.Sprint(r.HierC1), fmt.Sprint(r.HierC2),
			fmt.Sprintf("%.1f", r.FlatSec*1e6), fmt.Sprintf("%.1f", r.HierSec*1e6), winner)
	}
	ct := &cli.Table{Name: "topology-crossover-summary", Columns: []string{"n", "ratio", "flat_from_b"}}
	for _, c := range sweep.TopoCrossovers(rows) {
		if c.FlatFromB < 0 {
			fmt.Fprintf(w, "n=%-3d ratio=%-3g hierarchical wins across the whole sweep\n", c.N, c.Ratio)
		} else if c.FlatFromB == sizes[0] {
			fmt.Fprintf(w, "n=%-3d ratio=%-3g flat wins from b = %d (the smallest swept size)\n", c.N, c.Ratio, c.FlatFromB)
		} else {
			fmt.Fprintf(w, "n=%-3d ratio=%-3g hierarchical wins below b = %d, flat from there\n", c.N, c.Ratio, c.FlatFromB)
		}
		ct.AddRow(fmt.Sprint(c.N), fmt.Sprintf("%g", c.Ratio), fmt.Sprint(c.FlatFromB))
	}
	rp.add(st)
	rp.add(ct)
	return nil
}

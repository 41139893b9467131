// Allreduce: multi-tenant gradient averaging driven through compiled
// reduction plans — the workload that makes the paper's pair of
// algorithms a production primitive today. Allreduce is the classic
// composition reduce-scatter + allgather: the reduce-scatter phase has
// exactly the data movement of the paper's index operation plus an
// elementwise combine, and the allgather phase is the paper's
// concatenation.
//
// A 12-processor machine is partitioned into two training jobs (tenant
// groups) of different sizes. Each job's gradient allreduce is compiled
// ONCE into a Plan — tenant 0 with the cost-model auto dispatcher over
// the candidate reduce-scatter schedules, tenant 1 pinned to the Bruck
// index schedule at radix 2 — and every training step executes both
// plans concurrently in a single engine pass with RunPlans. Workers
// then divide the summed gradient by the group size locally, which
// turns the sum into the average. Every step is verified against a
// serially computed reference.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"bruck"
)

const (
	nProcs   = 12
	dim      = 64 // gradient elements per worker chunk
	steps    = 20
	blockLen = dim * 4 // float32
)

// tenant is one training job: a compiled allreduce plan over its group
// and the bound gradient buffers.
type tenant struct {
	workers  int
	plan     *bruck.Plan
	in, out  *bruck.Buffers
	gradient [][]float32 // per-worker gradients, refreshed every step
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	m := bruck.MustNewMachine(nProcs, bruck.Ports(2))
	sizes := []int{8, 4}
	tenants := make([]*tenant, len(sizes))
	plans := make([]*bruck.Plan, len(sizes))
	base := 0
	for ti, workers := range sizes {
		ids := make([]int, workers)
		for i := range ids {
			ids[i] = base + i
		}
		base += workers
		g, err := m.NewGroup(ids)
		if err != nil {
			return err
		}
		opts := []bruck.CollectiveOption{
			bruck.OnGroup(g),
			bruck.WithKernel(bruck.ReduceSum, bruck.Float32),
		}
		if ti == 0 {
			opts = append(opts, bruck.WithAuto(bruck.SP1))
		} else {
			opts = append(opts, bruck.WithReduceAlgorithm(bruck.ReduceBruck), bruck.WithRadix(2))
		}
		in, err := bruck.NewIndexBuffers(workers, blockLen)
		if err != nil {
			return err
		}
		out, err := bruck.NewIndexBuffers(workers, blockLen)
		if err != nil {
			return err
		}
		plan, err := m.Compile(bruck.AllReduce, in, opts...)
		if err != nil {
			return err
		}
		if err := plan.Bind(in, out); err != nil {
			return err
		}
		tenants[ti] = &tenant{workers: workers, plan: plan, in: in, out: out,
			gradient: make([][]float32, workers)}
		plans[ti] = plan
		fmt.Fprintf(w, "tenant %d: %d workers, %s plan (%s), %d rounds, C2 %dB (lower bound %dB)\n",
			ti, workers, plan.Op(), plan.Algorithm(), plan.Rounds(), plan.PredictedC2(), plan.C2LowerBound())
	}

	var reports []*bruck.Report
	for step := 0; step < steps; step++ {
		for ti, tn := range tenants {
			for wkr := 0; wkr < tn.workers; wkr++ {
				// Deterministic integer-valued "gradients": sums over a
				// group stay exactly representable, so the simulated
				// all-reduction is bit-checkable against the serial sum.
				g := make([]float32, tn.workers*dim)
				for e := range g {
					g[e] = float32((step+ti*3+wkr*7+e)%17 - 8)
				}
				tn.gradient[wkr] = g
				// Worker wkr's chunk j of its local gradient vector.
				for j := 0; j < tn.workers; j++ {
					bruck.Put(tn.in.Block(wkr, j), g[j*dim:(j+1)*dim])
				}
			}
		}
		var err error
		reports, err = m.RunPlans(plans)
		if err != nil {
			return err
		}
		for ti, tn := range tenants {
			if err := verifyAverage(tn); err != nil {
				return fmt.Errorf("step %d tenant %d: %w", step, ti, err)
			}
		}
	}

	for ti, rep := range reports {
		fmt.Fprintf(w, "tenant %d steady-state schedule: %v\n", ti, rep)
	}
	fmt.Fprintf(w, "averaged %d gradient steps for %d tenants in one RunPlans pass per step\n", steps, len(tenants))
	fmt.Fprintln(w, "ok")
	return nil
}

// verifyAverage checks every worker's allreduced vector against the
// serial sum, then applies the local averaging division in place — the
// out slab ends each step holding the averaged gradient, no further
// communication needed.
func verifyAverage(tn *tenant) error {
	nw := tn.workers
	want := make([]float32, nw*dim)
	for e := range want {
		for wkr := 0; wkr < nw; wkr++ {
			want[e] += tn.gradient[wkr][e]
		}
	}
	for wkr := 0; wkr < nw; wkr++ {
		for j := 0; j < nw; j++ {
			blk := tn.out.Block(wkr, j)
			got := bruck.Get[float32](blk)
			for e, v := range got {
				if v != want[j*dim+e] {
					return fmt.Errorf("worker %d chunk %d element %d: got %g, want %g", wkr, j, e, v, want[j*dim+e])
				}
				got[e] = v / float32(nw)
			}
			bruck.Put(blk, got)
		}
	}
	// Spot-check that the slab really holds averages now.
	avg0 := bruck.Get[float32](tn.out.Block(0, 0))[0]
	if avg0 != want[0]/float32(nw) {
		return fmt.Errorf("averaging did not land in the output slab: %g != %g", avg0, want[0]/float32(nw))
	}
	return nil
}

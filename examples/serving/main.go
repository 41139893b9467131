// Serving: a multi-tenant machine driving compiled collective plans in
// a request loop — the shape of a production serving system built on
// the paper's schedules.
//
// A 12-processor machine is partitioned into three disjoint tenant
// groups of four processors. Each tenant's collective is compiled ONCE
// into a Plan (the schedule is a fixed function of (n, k, r) — or, for
// ragged layouts, of the layout — so no per-request schedule work
// remains), and every request wave executes all three plans
// concurrently in a single engine pass with RunPlans, each on its
// tenant's standing buffers — per-tenant reports included. Tenants 0 and 1 serve uniform all-to-all
// personalized traffic (index); tenant 2 serves all-to-all broadcast
// with a ragged per-member payload layout (ConcatV, the
// MPI_Allgatherv shape), demonstrating fixed-size and ragged plans
// coexisting in one concurrent pass. The loop verifies every wave
// against the operations' defining permutations and prints the
// aggregate throughput.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"bruck"
)

const (
	tenants  = 3
	perGroup = 4
	blockLen = 32
	waves    = 25
)

// raggedCounts is tenant 2's contribution layout: wildly different
// per-member payloads, including an idle member contributing nothing.
var raggedCounts = []int{96, 0, 8, 40}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the whole serving loop — compile, waves, verification —
// writing the report to w; the in-process test drives it directly.
func run(w io.Writer) error {
	m := bruck.MustNewMachine(tenants * perGroup)

	runs := make([]bruck.PlanRun, tenants)
	uniIns := make([]*bruck.Buffers, tenants)
	uniOuts := make([]*bruck.Buffers, tenants)
	var ragIn, ragOut *bruck.RaggedBuffers
	for tenant := 0; tenant < tenants; tenant++ {
		ids := make([]int, perGroup)
		for i := range ids {
			ids[i] = tenant*perGroup + i
		}
		g, err := m.NewGroup(ids)
		if err != nil {
			return err
		}
		var plan *bruck.Plan
		if tenant < 2 {
			if uniIns[tenant], err = bruck.NewIndexBuffers(perGroup, blockLen); err != nil {
				return err
			}
			if uniOuts[tenant], err = bruck.NewIndexBuffers(perGroup, blockLen); err != nil {
				return err
			}
			if plan, err = m.Compile(bruck.Index, uniIns[tenant], bruck.OnGroup(g), bruck.WithRadix(2)); err != nil {
				return err
			}
			runs[tenant] = bruck.PlanRun{Plan: plan, In: uniIns[tenant], Out: uniOuts[tenant]}
		} else {
			layout, lerr := bruck.NewConcatLayout(raggedCounts)
			if lerr != nil {
				return lerr
			}
			if ragIn, err = bruck.NewRaggedBuffers(layout); err != nil {
				return err
			}
			if plan, err = m.Compile(bruck.Concat, ragIn, bruck.OnGroup(g), bruck.WithAuto(bruck.SP1)); err != nil {
				return err
			}
			if ragOut, err = bruck.NewRaggedBuffers(plan.OutLayout()); err != nil {
				return err
			}
			runs[tenant] = bruck.PlanRun{Plan: plan, In: ragIn, Out: ragOut}
		}
		fmt.Fprintf(w, "tenant %d: %s plan (%s) on processors %v, %d rounds\n",
			tenant, plan.Op(), plan.Algorithm(), ids, plan.Rounds())
	}

	// The request loop: refresh every tenant's payload, run all plans in
	// one concurrent pass, verify the results.
	start := time.Now()
	var reports []*bruck.Report
	for wave := 0; wave < waves; wave++ {
		for tenant := 0; tenant < 2; tenant++ {
			data := uniIns[tenant].Bytes()
			for x := range data {
				data[x] = byte(wave*31 + tenant*7 + x)
			}
		}
		ragData := ragIn.Bytes()
		for x := range ragData {
			ragData[x] = byte(wave*17 + x*3)
		}
		var err error
		reports, err = m.RunPlans(runs)
		if err != nil {
			return err
		}
		for tenant := 0; tenant < 2; tenant++ {
			if err := verifyIndex(uniIns[tenant], uniOuts[tenant]); err != nil {
				return fmt.Errorf("wave %d tenant %d: %w", wave, tenant, err)
			}
		}
		if err := verifyConcatV(ragIn, ragOut); err != nil {
			return fmt.Errorf("wave %d tenant 2: %w", wave, err)
		}
	}
	elapsed := time.Since(start)

	for tenant, rep := range reports {
		fmt.Fprintf(w, "tenant %d steady-state schedule: %v (C2 lower bound %d)\n",
			tenant, rep, rep.C2LowerBound)
	}
	fmt.Fprintf(w, "served %d waves x %d tenants in %v (%.0f collectives/s, simulator wall-clock)\n",
		waves, tenants, elapsed.Round(time.Millisecond),
		float64(waves*tenants)/elapsed.Seconds())
	fmt.Fprintln(w, "ok")
	return nil
}

// verifyIndex checks the index permutation out[i][j] = in[j][i].
func verifyIndex(in, out *bruck.Buffers) error {
	n := in.Procs()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, i)) {
				return fmt.Errorf("out[%d][%d] = %v, want %v", i, j, out.Block(i, j), in.Block(j, i))
			}
		}
	}
	return nil
}

// verifyConcatV checks the ragged concatenation out[i][j] = in[j] at
// each block's true length.
func verifyConcatV(in, out *bruck.RaggedBuffers) error {
	n := in.Layout().Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, 0)) {
				return fmt.Errorf("out[%d][%d] = %v, want %v", i, j, out.Block(i, j), in.Block(j, 0))
			}
		}
	}
	return nil
}

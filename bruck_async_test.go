package bruck

// Tests for the non-blocking verb: Start must produce byte-identical
// results to Run on a plain machine and under chaos with stragglers,
// the Handle lifecycle (Wait/Test/Report, error delivery, idempotent
// Wait) must hold, a second submission while one is in flight is
// rejected, and an asynchronous operation after a watchdog fence runs
// on the fresh transport exactly like a blocking one.

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bruck/internal/collective"
	"bruck/internal/mpsim"
)

// asyncMachines builds a plain machine and a chaos one, configured with
// stragglers so async completion order is adversarial.
func asyncMachines(t *testing.T, n, k int) map[string]*Machine {
	t.Helper()
	return map[string]*Machine{
		"plain": MustNewMachine(n, Ports(k)),
		"chaos": MustNewMachine(n, Ports(k), WithChaos(ChaosConfig{
			Seed: 11, Stragglers: []int{0, n / 2}, StragglerFactor: 4,
		})),
	}
}

// mustStart runs op through Start and Wait and returns the Handle.
func mustStart(t *testing.T, m *Machine, op Op, in, out any, opts ...CollectiveOption) *Handle {
	t.Helper()
	h, err := m.Start(op, in, out, opts...)
	if err != nil {
		t.Fatalf("Start(%v): %v", op, err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatalf("Wait(%v): %v", op, err)
	}
	return h
}

// TestIndexAsyncMatchesBlocking: plain and under chaos, Start(Index) (both
// monolithic and segmented) produces the same bytes and the same
// (C1, C2) report as Run.
func TestIndexAsyncMatchesBlocking(t *testing.T) {
	const n, k, b = 8, 2, 9
	for name, m := range asyncMachines(t, n, k) {
		in, want := input(t, n, n, b, 3), mustBuffers(t, n, n, b)
		wantRep := mustRun(t, m, Index, in, want, WithRadix(2))
		for _, opts := range [][]CollectiveOption{
			{WithRadix(2)},
			{WithRadix(2), WithSegments(4)},
			{WithRadix(2), WithSegments(AutoSegments)},
		} {
			out := mustBuffers(t, n, n, b)
			h := mustStart(t, m, Index, in, out, opts...)
			rep, _ := h.Wait()
			if !out.Equal(want) {
				t.Errorf("%s: async output differs from blocking", name)
			}
			if rep.C1 != wantRep.C1 && len(opts) == 1 {
				t.Errorf("%s: async C1 = %d, blocking %d", name, rep.C1, wantRep.C1)
			}
			if !h.Test() {
				t.Errorf("%s: Test() false after Wait", name)
			}
			if h.Report() != rep {
				t.Errorf("%s: Report() does not return the completed report", name)
			}
			// Wait is idempotent.
			if rep2, err2 := h.Wait(); rep2 != rep || err2 != nil {
				t.Errorf("%s: second Wait = (%v, %v), want (%v, nil)", name, rep2, err2, rep)
			}
		}
	}
}

// TestConcatAsyncMatchesBlocking mirrors the index test for the
// concatenation, and for its ragged form.
func TestConcatAsyncMatchesBlocking(t *testing.T) {
	const n, k, b = 7, 1, 6
	for name, m := range asyncMachines(t, n, k) {
		in, want, out := input(t, n, 1, b, 5), mustBuffers(t, n, n, b), mustBuffers(t, n, n, b)
		mustRun(t, m, Concat, in, want)
		mustStart(t, m, Concat, in, out)
		if !out.Equal(want) {
			t.Errorf("%s: async concat differs from blocking", name)
		}
		rin, err := FromRaggedVector([][]byte{{1}, {2, 3}, nil, {4}, {5, 6, 7}, {8}, {9}})
		if err != nil {
			t.Fatal(err)
		}
		rout := raggedOut(t, Concat, rin)
		mustStart(t, m, Concat, rin, rout)
		checkConcat(t, n, rin, rout)
	}
}

// TestAllReduceAsyncMatchesBlocking: async allreduce, monolithic and
// segmented, is bit-identical to the blocking path, plain and under
// chaos.
func TestAllReduceAsyncMatchesBlocking(t *testing.T) {
	const n, k, b = 8, 1, 12
	for name, m := range asyncMachines(t, n, k) {
		in, want := input(t, n, n, b, 9), mustBuffers(t, n, n, b)
		base := []CollectiveOption{WithKernel(ReduceSum, Int32), WithReduceAlgorithm(ReduceBruck), WithRadix(2)}
		mustRun(t, m, AllReduce, in, want, base...)
		for _, segs := range []int{0, 4} {
			out := mustBuffers(t, n, n, b)
			mustStart(t, m, AllReduce, in, out, append(base[:3:3], WithSegments(segs))...)
			if !out.Equal(want) {
				t.Errorf("%s s=%d: async allreduce differs from blocking", name, segs)
			}
		}
	}
}

// TestAsyncInflightRejected: while an async operation is pending the
// machine rejects a second submission, before resolving its plan,
// instead of racing two collectives over one engine.
func TestAsyncInflightRejected(t *testing.T) {
	const n, b = 4, 4
	m := MustNewMachine(n)
	in, out := input(t, n, n, b, 1), mustBuffers(t, n, n, b)
	// Force the pending state deterministically rather than racing a
	// real operation.
	m.inflight.Store(true)
	if _, err := m.Start(Index, in, out); err == nil {
		t.Fatal("Start accepted a submission while one is in flight")
	} else if !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("rejection error %q does not name the in-flight operation", err)
	}
	if got := m.plans.Len(); got != 0 {
		t.Errorf("the rejected submission compiled %d plans", got)
	}
	m.inflight.Store(false)
	mustStart(t, m, Index, in, out)
	// The guard resets on completion: the next submission is accepted.
	mustStart(t, m, Index, in, out)
}

// TestAsyncErrorsSurfaceOnWait: plan-resolution errors fail the
// submission synchronously; execution-time errors (here a mis-shaped
// output buffer) surface on Wait, leave Report nil, and clear the
// in-flight guard so the machine stays usable.
func TestAsyncErrorsSurfaceOnWait(t *testing.T) {
	const n, b = 4, 4
	m := MustNewMachine(n)
	in := input(t, n, n, b, 2)
	if _, err := m.Start(Index, nil, mustBuffers(t, n, n, b)); err == nil {
		t.Fatal("Start accepted a nil input")
	}
	h, err := m.Start(Index, in, mustBuffers(t, n, n, b+1))
	if err != nil {
		t.Fatalf("submission rejected a shape error that belongs to Wait: %v", err)
	}
	rep, werr := h.Wait()
	if werr == nil {
		t.Fatal("Wait returned nil error for a mis-shaped output")
	}
	if rep != nil || h.Report() != nil {
		t.Error("failed operation still produced a report")
	}
	mustStart(t, m, Index, in, mustBuffers(t, n, n, b))
}

// TestAsyncRankFailureIsPrompt: a failure on one rank of an async
// collective — a user combine that panics the first time it runs —
// surfaces on Wait as that rank's error at once. The peers, blocked on
// the dead rank, used to hold Wait until the 30 s watchdog, which then
// reported a deadlock in place of the panic. The machine stays usable.
func TestAsyncRankFailureIsPrompt(t *testing.T) {
	const n, b = 8, 16
	m := MustNewMachine(n)
	in, out := input(t, n, n, b, 3), mustBuffers(t, n, n, b)
	var once atomic.Bool
	sum := func(dst, src []byte) {
		if once.CompareAndSwap(false, true) {
			panic("bad kernel")
		}
		for i := range dst {
			dst[i] += src[i]
		}
	}
	start := time.Now()
	h, err := m.Start(AllReduce, in, out, WithCombine(sum))
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Wait returned after %v", took)
	}
	if err == nil || !strings.Contains(err.Error(), "panicked: bad kernel") || strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Wait error = %v, want the rank's panic alone", err)
	}
	mustStart(t, m, AllReduce, in, out, WithCombine(sum))
}

// TestAsyncSurvivesFencedRun: a watchdog-fenced deadlock between two
// async operations does not poison the async path — the post-fence
// submission runs on the fresh transport and reproduces the pre-fence
// bytes, and the deadlock's own error is delivered on Wait when it
// happens inside an async collective.
func TestAsyncSurvivesFencedRun(t *testing.T) {
	const n, b = 4, 8
	e := mpsim.MustNew(n, mpsim.Watchdog(200*time.Millisecond))
	m := &Machine{engine: e, world: mpsim.WorldGroup(n), plans: collective.NewPlanCache()}
	in, out1 := input(t, n, n, b, 7), mustBuffers(t, n, n, b)
	mustStart(t, m, Index, in, out1, WithSegments(2))
	// Deadlock the engine directly: rank 0 waits for a message nobody
	// sends, the watchdog fences the run.
	err := e.Run(func(p *mpsim.Proc) error {
		if p.Rank() == 0 {
			_, err := p.Exchange(nil, []int{1})
			return err
		}
		p.Skip()
		return nil
	})
	if err == nil {
		t.Fatal("deadlock run unexpectedly succeeded")
	}
	out2 := mustBuffers(t, n, n, b)
	mustStart(t, m, Index, in, out2, WithSegments(2))
	if !out2.Equal(out1) {
		t.Fatal("post-fence async execution produced different bytes")
	}
}

// TestOverlappingRunsAreRejected: a blocking call made while an
// asynchronous operation is in flight used to race it to the engine — the
// later call could win and the accepted operation fail on Wait. The
// machine now decides at submission: the blocking call fails at once with
// the facade's text, the accepted operation completes with the right
// bytes, and the machine is usable afterwards.
func TestOverlappingRunsAreRejected(t *testing.T) {
	const n, b = 16, 64 << 10
	const want = "bruck: an asynchronous operation is already in flight (Wait on its Handle first)"
	m := MustNewMachine(n)
	in, ref := input(t, n, n, b, 5), mustBuffers(t, n, n, b)
	mustRun(t, m, Index, in, ref)
	data := input(t, 1, 1, b, 4)
	for _, blocking := range []struct {
		name string
		call func() (ok bool, err error)
	}{
		{"IndexFlat", func() (bool, error) {
			out := mustBuffers(t, n, n, b)
			_, err := m.Run(Index, in, out)
			return out.Equal(ref), err
		}},
		{"BroadcastInto", func() (bool, error) {
			out := mustBuffers(t, n, 1, b)
			_, err := m.Run(Broadcast, data, out, Root(2))
			ok := true
			for i := 0; i < n; i++ {
				ok = ok && bytes.Equal(out.Block(i, 0), data.Bytes())
			}
			return ok, err
		}},
	} {
		asyncOut := mustBuffers(t, n, n, b)
		h, err := m.Start(Index, in, asyncOut)
		if err != nil {
			t.Fatalf("%s: Start: %v", blocking.name, err)
		}
		if _, syncErr := blocking.call(); syncErr == nil || syncErr.Error() != want {
			t.Fatalf("%s: blocking call during an async operation: error %v, want %q", blocking.name, syncErr, want)
		}
		if _, asyncErr := h.Wait(); asyncErr != nil {
			t.Fatalf("%s: the accepted async operation failed: %v", blocking.name, asyncErr)
		}
		if !asyncOut.Equal(ref) {
			t.Errorf("%s: the accepted async operation delivered wrong bytes", blocking.name)
		}
		if ok, err := blocking.call(); err != nil || !ok {
			t.Fatalf("%s: machine unusable after an overlap: ok=%v err=%v", blocking.name, ok, err)
		}
	}
}

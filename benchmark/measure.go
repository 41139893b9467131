package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"bruck"
)

// now is the harness's one wall-clock read.
func now() time.Time {
	//lint:allow detrand wall-clock time is the quantity the benchmark reports; nothing is snapshotted from it
	return time.Now()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is HeapAlloc after two forced collections (the second clears
// what the first only moved to a victim cache).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v (nearest rank), 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// instance is one live machine with a workload's slots allocated and
// filled, and the seeded order they run in.
type instance struct {
	m     *bruck.Machine
	ops   []*op
	cycle []*op
}

// newInstance builds the machine and buffers for seed. setup is the
// time NewMachine and buffer allocation took; payload generation is the
// harness's work and is not part of it.
func (w *workload) newInstance(seed uint64, cycleLen int) (inst *instance, setup time.Duration, err error) {
	var ops []*op
	for _, o := range w.ops(seed, cycleLen) {
		if o.mult > 0 {
			ops = append(ops, o)
		}
	}
	t0 := now()
	m, err := w.newMachine()
	if err != nil {
		return nil, 0, err
	}
	for _, o := range ops {
		if err := o.alloc(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", o.name, err)
		}
	}
	setup = now().Sub(t0)

	r := &rng{s: seed}
	inst = &instance{m: m, ops: ops}
	for _, o := range ops {
		o.fill(r)
		for i := 0; i < o.mult; i++ {
			inst.cycle = append(inst.cycle, o)
		}
	}
	for i, j := range r.perm(len(inst.cycle)) {
		inst.cycle[i], inst.cycle[j] = inst.cycle[j], inst.cycle[i]
	}
	return inst, setup, nil
}

// runner issues a workload's calls one at a time (closed loop, one
// caller) and keeps the failure account.
type runner struct {
	inst      *instance
	attempted int
	failed    int
	firstErr  error
	step      int
	// checkCPU is the CPU time spent preparing and verifying, which
	// cpu_us_per_op leaves out.
	checkCPU time.Duration
	// corrupt, set by the harness's own test, damages an output between
	// the call and its verification.
	corrupt func(o *op)
}

// do times one public call and returns when it started and how long it
// took. With check, the output is zeroed and the input perturbed before
// the timer starts and the result verified after it stops.
func (r *runner) do(o *op, check bool) (time.Time, time.Duration) {
	r.step++
	if check {
		c0 := cpuTime()
		o.prepare(r.step)
		r.checkCPU += cpuTime() - c0
	}
	t0 := now()
	rep, err := o.call(r.inst.m)
	d := now().Sub(t0)
	r.attempted++
	if err == nil {
		o.rep = rep
		if check {
			c0 := cpuTime()
			if r.corrupt != nil {
				r.corrupt(o)
			}
			err = o.verify()
			r.checkCPU += cpuTime() - c0
		}
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	return t0, d
}

// window is what one pass measured: whole cycles only, so every window
// of mixed-serving holds the same mix.
type window struct {
	ops            int
	wall, cpu      time.Duration // wall is the sum of the calls' durations
	mallocs, bytes uint64
	payload        int64
}

// pass runs whole cycles for about budget as one window, checking one
// op in verifyEvery. It appends every call's duration in ns to lat.
func (r *runner) pass(budget time.Duration, verifyEvery int, lat []float64) ([]float64, window) {
	var w window
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	cpu0, check0 := cpuTime(), r.checkCPU
	for start := now(); w.ops == 0 || now().Sub(start) < budget; {
		for _, o := range r.inst.cycle {
			_, d := r.do(o, (r.step+1)%verifyEvery == 0)
			lat = append(lat, float64(d))
			w.wall += d
			w.payload += o.payload
		}
		w.ops += len(r.inst.cycle)
	}
	w.cpu = cpuTime() - cpu0 - (r.checkCPU - check0)
	runtime.ReadMemStats(&ms)
	w.mallocs, w.bytes = ms.Mallocs-mallocs, ms.TotalAlloc-bytes
	return lat, w
}

// merge adds another runner's failure account to r's.
func (r *runner) merge(o *runner) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// budget sizes the phases of a run.
type budget struct {
	setups      int           // cold set-ups at least
	setupTime   time.Duration // keep setting up (to 10x setups) until this has passed
	warm, timed time.Duration
	windows     int
	verifyEvery int // the timed pass checks one op in this many
	cycleLen    int
	latCap      int // latency samples to preallocate, per window
}

func budgetFor(w *workload, seconds float64) budget {
	d := time.Duration(seconds * float64(time.Second))
	return budget{setups: 20, setupTime: d / 20, warm: d / 10, timed: d, windows: 10,
		verifyEvery: 64, cycleLen: w.cycleLen, latCap: int(seconds * 4000)}
}

// values maps a metric's name to its measurement.
type values map[string]value

type value struct {
	v float64
	n int // samples behind v
}

// coldSetup times one set-up from nothing: NewMachine, buffer
// allocation, and the first call of every slot (plan compile, pool
// fill), each verified. The heap is handed back to the OS first, so
// that every set-up pays for its pages as a new process would; set-ups
// that reuse whatever the last one left mapped read 12 ms in one process
// and 27 ms in the next on index-large.
func coldSetup(w *workload, seed uint64, cycleLen int, acct *runner) (time.Duration, error) {
	debug.FreeOSMemory()
	inst, setup, err := w.newInstance(seed, cycleLen)
	if err != nil {
		return 0, err
	}
	r := &runner{inst: inst}
	for _, o := range inst.ops {
		_, d := r.do(o, true)
		setup += d
	}
	acct.merge(r)
	return setup, nil
}

// endToEnd measures a workload with tracing off: cold set-ups, then the
// timed pass in windows. Every window runs on a machine and buffers of
// its own after a verified warm-up, because where the allocator puts
// 16 MiB buffers moves a whole run's throughput by 10% and more, and on
// one P a machine now and then settles into a goroutine order that runs
// index-small in 42 us, not 53; ten machines in one run average both
// out. Each metric is measured per window and reported as the median of
// the windows. It returns the end-to-end metrics and the failure
// account.
func endToEnd(w *workload, seed uint64, b budget, corrupt func(*op)) (values, *runner, error) {
	acct := &runner{}
	var setups []float64
	for start := now(); len(setups) < b.setups || (now().Sub(start) < b.setupTime && len(setups) < 10*b.setups); {
		d, err := coldSetup(w, seed, b.cycleLen, acct)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}

	lat := make([]float64, 0, b.latCap)
	perWindow := map[string][]float64{}
	samples := 0
	for i := 0; i < b.windows; i++ {
		base := liveHeap()
		inst, _, err := w.newInstance(seed, b.cycleLen)
		if err != nil {
			return nil, nil, err
		}
		r := &runner{inst: inst, corrupt: corrupt}
		r.pass(b.warm/time.Duration(b.windows), 1, nil)
		runtime.GC()
		var win window
		lat, win = r.pass(b.timed/time.Duration(b.windows), b.verifyEvery, lat[:0])
		live := liveHeap()
		runtime.KeepAlive(inst)
		acct.merge(r)

		samples += win.ops
		ops := float64(win.ops)
		for name, v := range map[string]float64{
			"ops_per_s":        ops / win.wall.Seconds(),
			"latency_p50_us":   median(lat) / 1e3,
			"goodput_gb_per_s": float64(win.payload) / 1e9 / win.wall.Seconds(),
			"cpu_us_per_op":    float64(win.cpu.Microseconds()) / ops,
			"allocs_per_op":    float64(win.mallocs) / ops,
			"alloc_kb_per_op":  float64(win.bytes) / 1024 / ops,
			"heap_live_mb":     max(float64(live)-float64(base), 0) / (1 << 20),
		} {
			perWindow[name] = append(perWindow[name], v)
		}
	}

	out := values{}
	for _, m := range endToEndMetrics {
		out[m.name] = value{median(perWindow[m.name]), b.windows}
	}
	out["setup_s"] = value{median(setups), len(setups)}
	out["latency_p50_us"] = value{out["latency_p50_us"].v, samples}
	return out, acct, nil
}

// Package collective is a structural fixture for the planlife
// analyzer: it mirrors the real package's shapes (a Plan type, a
// Spec with its planKey, Options structs, ExecutePlans) so the analyzer's
// suffix-based type matching applies without importing unexported
// internals.
package collective

import "bruck/internal/mpsim"

type Plan struct {
	c1, c2 int
	engine *mpsim.Engine
}

type planKey struct {
	op, alg int
	kernel  string
}

type FakeOptions struct {
	Algorithm int
	Radix     int // want "Spec field Opts.Radix never flows into the plan cache key"
}

type Spec struct {
	Op      int
	Opts    FakeOptions
	Whole   FakeOptions
	Dropped int // want "Spec field Dropped never flows into the plan cache key"
	//lint:allow planlife a func is not comparable; Name is its identity in the key
	Kernel func()
	Name   string
}

// CompileFake is compile-pipeline by name: field writes are fine here.
func CompileFake(e *mpsim.Engine, opt FakeOptions) *Plan {
	pl := &Plan{engine: e}
	pl.c1 = opt.Algorithm + opt.Radix
	return pl
}

// finishFake is compile-pipeline by prefix.
func (pl *Plan) finishFake() {
	pl.c2 = pl.c1 * 2
}

func retune(pl *Plan) {
	pl.c2 = 0 // want "assignment to plan field c2"
}

func buildLocal(e *mpsim.Engine) *Plan {
	pl := &Plan{engine: e}
	pl.c1 = 1 // locally constructed: not yet shared
	return pl
}

func ExecutePlans(e *mpsim.Engine, plans []*Plan) error {
	_ = e
	_ = plans
	return nil
}

func wrongEngine(e1, e2 *mpsim.Engine, opt FakeOptions) error {
	pl := CompileFake(e1, opt)
	return ExecutePlans(e2, []*Plan{pl}) // want "compiled for engine e1 but is executed on e2"
}

func rightEngine(e *mpsim.Engine, opt FakeOptions) error {
	pl := CompileFake(e, opt)
	return ExecutePlans(e, []*Plan{pl})
}

// keyOf is the key function: Op and Name flow in directly, Whole as a
// value, Opts only through its Algorithm; Dropped and Opts.Radix are
// the findings, Kernel the documented exception.
func keyOf(s Spec) planKey {
	alg := s.Opts.Algorithm
	if s.Whole == (FakeOptions{}) {
		alg = 0
	}
	return planKey{op: s.Op, alg: alg, kernel: s.Name}
}

func strayKey(alg int) planKey {
	return planKey{alg: alg} // want "plan cache key built without the Spec it identifies"
}

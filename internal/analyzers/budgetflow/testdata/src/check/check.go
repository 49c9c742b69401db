package check

import "budget"

// Determinize / DeterminizeB model the solver's sibling convention: the
// un-budgeted form wraps the budgeted one with a nil budget.

func Determinize(x int) int {
	d, _ := DeterminizeB(nil, x) // clean: a literal nil budget cannot fail
	return d
}

func DeterminizeB(bud *budget.Budget, x int) (int, error) {
	if err := bud.AddStates(1, "determinize"); err != nil {
		return 0, err
	}
	return x + 1, nil
}

// F2: a budget-threaded function must not call the un-budgeted sibling.
func SolveB(bud *budget.Budget, x int) (int, error) {
	y := Determinize(x) // want `un-budgeted Determinize reached on a path where bud may be live; use DeterminizeB`
	return y, nil
}

// Clean: same shape, budget threaded through.
func SolveWellB(bud *budget.Budget, x int) (int, error) {
	y, err := DeterminizeB(bud, x)
	if err != nil {
		return 0, err
	}
	return y, nil
}

// Clean: no budget in scope, the un-budgeted wrapper is the right call.
func Plain(x int) int {
	return Determinize(x)
}

// R2: discarding a live budget's error hides exhaustion.
func UseB(bud *budget.Budget, x int) int {
	y, _ := DeterminizeB(bud, x) // want `error result of DeterminizeB is discarded`
	return y
}

// R2: a bare expression statement discards the error too.
func DropB(bud *budget.Budget, x int) {
	DeterminizeB(bud, x) // want `error result of DeterminizeB is discarded`
}

// Method sibling pairs resolve through the receiver's method set.
type M struct{}

func (m M) Minimize() int {
	v, _ := m.MinimizeB(nil) // clean: nil-budget contract
	return v
}

func (m M) MinimizeB(bud *budget.Budget) (int, error) {
	return 1, bud.Check("minimize")
}

func ShrinkB(bud *budget.Budget, m M) (int, error) {
	v := m.Minimize() // want `un-budgeted Minimize reached on a path where bud may be live; use MinimizeB`
	_ = v
	return m.MinimizeB(bud)
}

// Methods on a struct that carries a budget field are budget-threaded
// (the solver's gciSolver / maximizer pattern).
type solver struct {
	bud *budget.Budget
}

func (s *solver) run(x int) (int, error) {
	y := Determinize(x) // want `un-budgeted Determinize reached on a path where s.bud may be live; use DeterminizeB`
	_ = y
	return DeterminizeB(s.bud, x)
}

// The escape hatch suppresses a finding, but only with a reason.
func IgnoredB(bud *budget.Budget, x int) int {
	//lint:ignore dprlelint/budgetflow measuring the unbudgeted baseline on purpose
	y := Determinize(x)
	return y
}

func NotIgnoredB(bud *budget.Budget, x int) int {
	//lint:ignore dprlelint/budgetflow
	y := Determinize(x) // want `un-budgeted Determinize`
	return y
}

// A budget captured by a closure is outside the nilness lattice; it stays
// live wherever it is in scope, including inside the closure itself.
func CapturedB(bud *budget.Budget, x int) int {
	retry := func() int {
		_ = bud.Check("retry")
		return Determinize(x) // want `un-budgeted Determinize reached on a path where bud may be live`
	}
	return retry() + Determinize(x) // want `un-budgeted Determinize reached on a path where bud may be live`
}

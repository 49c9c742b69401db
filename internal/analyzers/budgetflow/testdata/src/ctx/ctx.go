package ctx

import (
	"context"
	"sync"

	"budget"
)

func work() {}

func workB(bud *budget.Budget) {
	_ = bud.Check("work")
}

// C1: a worker goroutine that never sees the budget does unaccounted,
// uncancellable work.
func FanOutB(bud *budget.Budget, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want `goroutine spawned in budget-threaded function FanOutB does not reference the budget`
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Clean: the goroutine closes over the budget.
func FanOutWellB(bud *budget.Budget, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workB(bud)
		}()
	}
	wg.Wait()
}

// Clean: a goroutine on a budget-carrying struct threads the budget
// implicitly (the solver's per-CI-group fan-out pattern).
type solver struct {
	bud *budget.Budget
}

func (s *solver) step() { _ = s.bud.Check("step") }

func (s *solver) run() {
	go s.step()
}

// Clean: functions without budget access are outside C1's scope.
func PlainFanOut(n int) {
	for i := 0; i < n; i++ {
		go work()
	}
}

// C2: calling context.Background in a function that already has a ctx
// disconnects the work from the caller's deadline.
func Run(ctx context.Context) error {
	bg := context.Background() // want `Run takes a context.Context but calls context.Background, dropping the caller's cancellation`
	_ = bg
	return ctx.Err()
}

// C2: context.TODO is the same hazard.
func RunTODO(ctx context.Context) error {
	bg := context.TODO() // want `RunTODO takes a context.Context but calls context.TODO, dropping the caller's cancellation`
	_ = bg
	return ctx.Err()
}

// Clean: the nil-default idiom keeps the caller's context when given.
func RunWell(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx.Err()
}

// Clean: no context parameter, Background is the right root.
func Root() error {
	ctx := context.Background()
	return ctx.Err()
}

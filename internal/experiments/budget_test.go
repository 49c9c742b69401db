package experiments

import (
	"runtime"
	"testing"
	"time"

	"dprle/internal/core"
	"dprle/internal/corpus"
)

// secureStateCap is the per-path MaxStates cap for the raw-constants
// warp/secure run.
const secureStateCap = 20_000

// TestSecureRawConstantsUnderBudget is the acceptance check for the
// resource-governance work: the paper's pathological warp/secure case with
// raw (uncanonicalized) constants completes promptly under a per-path cap
// of secureStateCap states. The exhausted paths are recorded, any results
// that do come back are verified partials, and no solver goroutines leak.
//
// The cap is a state count, not a deadline, so the trip does not depend on
// host speed: the uncapped solve takes about 2 s, so a 2 s deadline tripped
// on some hosts and not on others. secureStateCap trips in a stage that
// cannot degrade (about 0.2 s on a 2-vCPU x86-64 host); a cap of 500,000
// would trip only inside a degradable stage (minimization, dedup), which
// records no exhausted path.
func TestSecureRawConstantsUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("solves warp/secure with raw constants")
	}
	d, ok := corpus.DefectByName("warp/secure")
	if !ok {
		t.Fatal("warp/secure defect missing from the corpus")
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	row, err := RunDefectBudget(d, core.Options{RawConstants: true}, 0, secureStateCap, 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted run failed outright: %v", err)
	}
	if row.ExhaustedPaths == 0 {
		t.Errorf("no path recorded a budget trip; the pathological solve should exhaust a %d-state cap", secureStateCap)
	}
	// A handful of capped paths plus parsing/symexec overhead.
	if elapsed > 60*time.Second {
		t.Errorf("budgeted analysis took %v; the deadline is not being honored", elapsed)
	}
	if row.SolveStates == 0 {
		t.Error("SolveStates = 0: budget counters were not propagated")
	}
	t.Logf("TS=%v states=%d steps=%d exhausted=%d findings=%d",
		row.TS, row.SolveStates, row.SolveSteps, row.ExhaustedPaths, row.Findings)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOrdinaryDefectUnaffectedByBudget checks a fast defect still solves
// identically when generous budgets are configured.
func TestOrdinaryDefectUnaffectedByBudget(t *testing.T) {
	d, ok := corpus.DefectByName("utopia/styles")
	if !ok {
		t.Fatal("utopia/styles defect missing from the corpus")
	}
	plain, err := RunDefect(d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := RunDefectBudget(d, core.Options{}, 30*time.Second, 1<<30, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.ExhaustedPaths != 0 {
		t.Errorf("ExhaustedPaths = %d under generous budgets", budgeted.ExhaustedPaths)
	}
	if budgeted.Findings != plain.Findings {
		t.Errorf("findings changed under budget: %d vs %d", budgeted.Findings, plain.Findings)
	}
	if budgeted.SolveStates == 0 || budgeted.SolveSteps == 0 {
		t.Errorf("budget counters empty: states=%d steps=%d", budgeted.SolveStates, budgeted.SolveSteps)
	}
}

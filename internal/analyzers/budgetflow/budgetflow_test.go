package budgetflow_test

import (
	"testing"

	"dprle/internal/analysis/analysistest"
	"dprle/internal/analyzers/budgetflow"
)

func TestBudgetflow(t *testing.T) {
	analysistest.Run(t, "testdata", budgetflow.Analyzer, "a", "check", "ctx", "f3")
}

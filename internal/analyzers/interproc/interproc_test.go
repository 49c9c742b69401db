package interproc

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dprle/internal/analysis"
	"dprle/internal/analysis/callgraph"
)

// loadSummaries type-checks the sum fixture and returns its summaries keyed
// by callgraph node name.
func loadSummaries(t *testing.T) map[string]FuncSummary {
	t.Helper()
	l := analysis.NewSourceLoader("testdata/src")
	pkg, err := l.Load("sum")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	g := callgraph.Build(pkg.Info, pkg.Files)
	sums, degraded := computeSummaries(pkg.Info, g)
	if degraded != 0 {
		t.Fatalf("computeSummaries degraded %d SCCs, want 0", degraded)
	}
	out := map[string]FuncSummary{}
	for _, n := range g.Nodes {
		out[n.Name()] = sums[n.ID]
	}
	return out
}

func derefs(t *testing.T, sums map[string]FuncSummary, fn string) []bool {
	t.Helper()
	s, ok := sums[fn]
	if !ok {
		t.Fatalf("no summary for %s", fn)
	}
	return s.DerefsParamWhenNil
}

func TestDerefsParamWhenNil(t *testing.T) {
	sums := loadSummaries(t)
	cases := []struct {
		fn   string
		want []bool
	}{
		{"derefDirect", []bool{true}},
		{"derefGuarded", []bool{false}},
		{"derefTransitive", []bool{true}},
		{"derefRecursive", []bool{true, false}},  // SCC fixpoint
		{"derefRecursive2", []bool{true, false}}, // via the cycle partner
		{"noStore", []bool{false}},
		{"derefCoNil", []bool{false, false}},     // needs both nil at once
		{"derefAfterGuard", []bool{false, true}}, // nil b alone panics
	}
	for _, c := range cases {
		if got := derefs(t, sums, c.fn); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: DerefsParamWhenNil = %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestStoresParam(t *testing.T) {
	sums := loadSummaries(t)
	cases := []struct {
		fn   string
		want []bool
	}{
		{"storesField", []bool{false, true}},
		{"storesGlobal", []bool{true}},
		{"storesTransitive", []bool{false, true}},
		{"noStore", []bool{false}},
	}
	for _, c := range cases {
		if got := sums[c.fn].StoresParam; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: StoresParam = %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestBudgetParams(t *testing.T) {
	sums := loadSummaries(t)
	cases := []struct {
		fn   string
		want []bool
	}{
		{"DeterminizeB", []bool{true, false}},      // bud.Check receiver
		{"threadsBudget", []bool{true, false}},     // arg 0 of a *B variant
		{"threadsBudgetDeep", []bool{true, false}}, // through a helper
		{"ignoresBudget", []bool{false, false}},
		{"blockSeeded", []bool{true}},
	}
	for _, c := range cases {
		if got := sums[c.fn].BudgetParams; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: BudgetParams = %v, want %v", c.fn, got, c.want)
		}
	}
}

func TestMayBlock(t *testing.T) {
	sums := loadSummaries(t)
	cases := []struct {
		fn     string
		block  bool
		reason string
	}{
		{"blockSend", true, "channel send"},
		{"blockSelectNoDefault", true, "select without default"},
		{"nonBlockingSelect", false, ""},
		{"blockTransitive", true, "call to blockSend (channel send)"},
		{"goDoesNotBlock", false, ""},
		{"blockSeeded", true, "call to budget checkpoint Check"},
		{"DeterminizeB", true, "call to budget checkpoint Check"},
		{"threadsBudget", true, "call to DeterminizeB (call to budget checkpoint Check)"},
		{"derefDirect", false, ""},
		{"(*guarded).locksMu", false, ""},
	}
	for _, c := range cases {
		s, ok := sums[c.fn]
		if !ok {
			t.Fatalf("no summary for %s", c.fn)
		}
		if s.MayBlock != c.block || s.BlockReason != c.reason {
			t.Errorf("%s: MayBlock=%v reason=%q, want %v %q", c.fn, s.MayBlock, s.BlockReason, c.block, c.reason)
		}
	}
}

func TestLockSummaries(t *testing.T) {
	sums := loadSummaries(t)
	recvCases := []struct {
		fn   string
		want []string
	}{
		{"(*guarded).locksMu", []string{"mu"}},
		{"(*guarded).locksRW", []string{"rw"}},
		{"(*guarded).locksTransitive", []string{"mu"}},
		// Recursion through a self-referential receiver chain must
		// converge to the direct lock alone, not grow next.next...mu.
		{"(*lnode).lockChain", []string{"mu"}},
		{"(*lnode).lockChainMutual", []string{"mu"}},
		{"(*lnode).lockChainPartner", nil},
	}
	for _, c := range recvCases {
		s, ok := sums[c.fn]
		if !ok {
			t.Fatalf("no summary for %s", c.fn)
		}
		if !reflect.DeepEqual(s.RecvLocks, c.want) {
			t.Errorf("%s: RecvLocks = %v, want %v", c.fn, s.RecvLocks, c.want)
		}
	}
	for _, fn := range []string{"locksGlobal", "locksGlobalTransitive"} {
		s, ok := sums[fn]
		if !ok {
			t.Fatalf("no summary for %s", fn)
		}
		if len(s.GlobalLocks) != 1 || s.GlobalLocks[0].Name() != "globalMu" {
			t.Errorf("%s: GlobalLocks = %v, want [globalMu]", fn, s.GlobalLocks)
		}
	}
	if s := sums["blockSend"]; len(s.RecvLocks) != 0 || len(s.GlobalLocks) != 0 {
		t.Errorf("blockSend: unexpected lock summary %v %v", s.RecvLocks, s.GlobalLocks)
	}
}

// TestSummariesDeterministic recomputes the summaries from a fresh load and
// checks the per-name results agree — guarding the sorted lock sets and
// stable SCC iteration the byte-stable -json output depends on.
func TestSummariesDeterministic(t *testing.T) {
	a := loadSummaries(t)
	b := loadSummaries(t)
	if len(a) != len(b) {
		t.Fatalf("node count differs across loads: %d vs %d", len(a), len(b))
	}
	for name, sa := range a {
		sb, ok := b[name]
		if !ok {
			t.Fatalf("node %s missing on reload", name)
		}
		// GlobalLocks holds *types.Var from distinct type-check runs;
		// compare by name.
		if !reflect.DeepEqual(sa.RecvLocks, sb.RecvLocks) ||
			sa.MayBlock != sb.MayBlock || sa.BlockReason != sb.BlockReason ||
			!reflect.DeepEqual(sa.DerefsParamWhenNil, sb.DerefsParamWhenNil) ||
			!reflect.DeepEqual(sa.StoresParam, sb.StoresParam) ||
			!reflect.DeepEqual(sa.BudgetParams, sb.BudgetParams) ||
			len(sa.GlobalLocks) != len(sb.GlobalLocks) {
			t.Errorf("%s: summary differs across loads", name)
		}
		for i := range sa.GlobalLocks {
			if sa.GlobalLocks[i].Name() != sb.GlobalLocks[i].Name() {
				t.Errorf("%s: GlobalLocks[%d] %s vs %s", name, i, sa.GlobalLocks[i].Name(), sb.GlobalLocks[i].Name())
			}
		}
	}
}

// TestOfMemoLivesWithPackage checks that Of computes a package's Info once
// across analyzers and Run calls, and that the Info becomes collectable
// once its loader and package are dropped: no package-level map keeps
// loaded packages alive.
func TestOfMemoLivesWithPackage(t *testing.T) {
	collected := make(chan struct{})
	func() {
		l := analysis.NewSourceLoader("testdata/src")
		pkg, err := l.Load("sum")
		if err != nil {
			t.Fatalf("loading fixture: %v", err)
		}
		var infos []*Info
		probe := func(name string) *analysis.Analyzer {
			return &analysis.Analyzer{Name: name, Run: func(p *analysis.Pass) error {
				infos = append(infos, Of(p))
				return nil
			}}
		}
		for _, suite := range [][]*analysis.Analyzer{{probe("a"), probe("b")}, {probe("c")}} {
			if _, err := analysis.Run(pkg, l.Fset, suite); err != nil {
				t.Fatal(err)
			}
		}
		for _, in := range infos[1:] {
			if in != infos[0] {
				t.Fatal("Of recomputed the Info of an already analyzed package")
			}
		}
		runtime.SetFinalizer(infos[0], func(*Info) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("Info still reachable after its loader and package were dropped")
}

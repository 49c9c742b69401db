package strlang

import (
	"context"
	"sync"
	"time"

	"dprle"
	"dprle/internal/analyzers/strfacts"
	"dprle/internal/solvecache"
)

// Per-solve resource budget. Each discharged constraint is a two-line
// system over tiny machines (the abstract value is capped at
// strfacts.MaxValStates states, the contract at contractStates), so a trip
// means something pathological; the check then degrades to UNKNOWN and
// stays silent rather than stalling the lint run.
const (
	solveDeadline  = 2 * time.Second
	solveMaxStates = 1 << 15
	solveMaxSteps  = 1 << 18
)

// verdict is one memoized discharge outcome. known=false records a budget
// trip: the containment question was not decided, no finding is emitted,
// and re-asking would re-burn the budget for the same answer.
type verdict struct {
	violated bool
	witness  string
	known    bool
}

// The discharge memo is keyed by language fingerprints (solvecache.Key
// over strfacts.Val.Key, the nfa.FingerprintB form), so structurally
// distinct automata for the same abstract value share one solve. The
// dprle.Cache underneath additionally memoizes solver-internal components
// across distinct systems. Both persist across passes: languages recur
// across functions and packages far more often than they recur within one.
var (
	dischargeMu   sync.Mutex
	dischargeMemo = map[string]verdict{}
	solverCache   = dprle.NewCache(0, 0)
)

// argKey fingerprints an abstract value for the memo. Val.Key is the
// fingerprint of the minimal DFA; the two Σ* forms share one language.
func argKey(v strfacts.Val) string {
	if v.IsTop() {
		return "top"
	}
	return v.Key()
}

// discharge decides L(v) ⊆ L(c) by dogfooding the solver: it asks for a
// maximal assignment with
//
//	arg ⊆ L(v)        (the language the dataflow analysis observed)
//	arg ⊆ Σ* \ L(c)   (the escape region)
//
// A satisfying assignment is a constructive refutation of the containment
// — its arg language is exactly L(v) \ L(c) — and the deterministic
// shortest witness of that language becomes the counterexample shown to
// the user. UNSAT proves the containment. A budget trip leaves the
// question UNKNOWN (known=false), which callers treat as no-finding.
func (ck *checker) discharge(v strfacts.Val, c *contract) verdict {
	key := solvecache.Key("strlang", argKey(v), "re:"+c.pattern)
	dischargeMu.Lock()
	ver, hit := dischargeMemo[key]
	dischargeMu.Unlock()
	if hit {
		ck.cacheHits++
		return ver
	}
	ck.solverCalls++

	argLang := dprle.AnyLang()
	if m := v.Machine(); m != nil {
		var err error
		argLang, err = dprle.UnmarshalLang(m.Marshal())
		if err != nil {
			return verdict{} // unreachable: Marshal round-trips
		}
	}
	sys := dprle.NewSystem()
	sys.MustRequire(dprle.V("arg"), "observed", argLang)
	sys.MustRequire(dprle.V("arg"), "escape", c.compl)

	ctx, cancel := context.WithTimeout(context.Background(), solveDeadline)
	defer cancel()
	res, err := sys.SolveContext(ctx, dprle.Options{
		MaxStates: solveMaxStates,
		MaxSteps:  solveMaxSteps,
		Cache:     solverCache,
	})
	switch {
	case res != nil && res.Sat():
		// Even under a tripped budget a returned assignment is verified.
		w, _ := res.First().ShortestWitness("arg")
		ver = verdict{violated: true, witness: w, known: true}
	case err != nil:
		ver = verdict{} // UNKNOWN: budget tripped before a decision
	default:
		ver = verdict{known: true} // UNSAT: containment proven
	}
	dischargeMu.Lock()
	dischargeMemo[key] = ver
	dischargeMu.Unlock()
	return ver
}

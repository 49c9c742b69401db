package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"time"

	"dprle/internal/cfg"
	"dprle/internal/core"
	"dprle/internal/corpus"
	"dprle/internal/lang"
	"dprle/internal/nfa"
	"dprle/internal/symexec"
)

// minSweeps is the fewest fig12 sweeps a timed phase runs, so that its
// p90 has ten samples beyond it.
const minSweeps = 100

// defectCase is one Figure 12 defect with its generated source.
type defectCase struct {
	d    corpus.Defect
	key  string
	src  string
	prog *lang.Program // parsed once, for the replay oracles only
}

// fig12Bench analyzes defects end to end, one caller, solve cache off.
// With sweep set (fig12) a unit of work is one sweep over every case in
// a seeded order; otherwise (secure) it is one analysis of the single
// case.
type fig12Bench struct {
	cases   []defectCase
	rng     *rand.Rand
	sweep   bool
	minOps  int
	oracle  *replayOracle
	systems []*symexec.PathSystem // last traced sweep's systems
	// extra and extraCPU hold the time the current traced unit spent on
	// calls the untraced pipeline never makes (a separate dependency
	// graph, assignment verification); unit leaves it out of the unit's
	// time so that trace.overhead_ratio measures tracing alone.
	extra, extraCPU time.Duration
}

func setupFig12(seed int64, _ string) (bench, error) {
	var ds []corpus.Defect
	for _, d := range corpus.Defects() {
		if !d.Big {
			ds = append(ds, d)
		}
	}
	return newFig12Bench(seed, ds, true, minSweeps)
}

func setupSecure(seed int64, _ string) (bench, error) {
	d, ok := corpus.DefectByName("warp/secure")
	if !ok {
		return nil, errors.New("corpus has no warp/secure defect")
	}
	return newFig12Bench(seed, []corpus.Defect{d}, false, 1)
}

func newFig12Bench(seed int64, ds []corpus.Defect, sweep bool, minOps int) (*fig12Bench, error) {
	b := &fig12Bench{rng: rand.New(rand.NewSource(seed)), sweep: sweep, minOps: minOps, oracle: newReplayOracle()}
	for _, d := range ds {
		src, err := corpus.Source(d)
		if err != nil {
			return nil, err
		}
		key := d.App + "/" + d.Name
		prog, err := lang.Parse(key+".php", src)
		if err != nil {
			return nil, err
		}
		b.cases = append(b.cases, defectCase{d: d, key: key, src: src, prog: prog})
	}
	// Warm-up: one untimed sweep for fig12. For secure only the front half
	// of the pipeline: a solve of warp/secure costs as much as the timed
	// phase, and the solver keeps no state between calls to warm.
	if !b.sweep {
		for _, p := range cfg.PathsToSinks(b.cases[0].prog, 0) {
			if _, err := symexec.ForPath(p, symexec.DefaultConfig().SQL); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	b.unit(nil, &outcome{}) // wrong answers are counted by the timed phase
	return b, nil
}

func (b *fig12Bench) close() {}

// defectAnswer is one defect's answer: the exploit inputs and the Figure 12
// structural metrics.
type defectAnswer struct {
	inputs      map[string]string
	blocks      int
	constraints int
	found       bool
}

// analyze runs the untraced pipeline: parse, then symexec.AnalyzeProgram.
func analyze(c defectCase) (defectAnswer, error) {
	prog, err := lang.Parse(c.key+".php", c.src)
	if err != nil {
		return defectAnswer{}, err
	}
	findings, stats, err := symexec.AnalyzeProgram(prog, symexec.DefaultConfig())
	if err != nil {
		return defectAnswer{}, err
	}
	a := defectAnswer{blocks: stats.Blocks, constraints: stats.Constraints}
	if len(findings) > 0 {
		a.inputs, a.found = findings[0].Inputs, true
	}
	return a, nil
}

// layerCounts accumulates the per-layer counts of one unit of work.
type layerCounts struct {
	paths, constraints, ciGroups, assignments int
	states, steps, exhausted                  int64
	allocBytes                                uint64
}

// analyzeTraced is the same pipeline as analyze, with each layer called
// separately from here so that its span can be recorded. It mirrors
// symexec.AnalyzeProgram: first feasible path per sink, SQL and XSS
// policies, the first assignment covering every input, shortest witnesses.
func (b *fig12Bench) analyzeTraced(c defectCase, tr *Tracer, parent int, lc *layerCounts) (defectAnswer, error) {
	root := tr.Begin("defect", c.key, parent)
	defer tr.End(root)
	sp := tr.Begin("lang.parse", c.key, root)
	prog, err := lang.Parse(c.key+".php", c.src)
	tr.End(sp)
	if err != nil {
		return defectAnswer{}, err
	}
	sp = tr.Begin("cfg.paths", c.key, root)
	blocks := cfg.Build(prog).NumBlocks()
	paths := cfg.PathsToSinks(prog, 0)
	tr.End(sp)
	lc.paths += len(paths)

	conf := symexec.DefaultConfig()
	a := defectAnswer{blocks: blocks}
	done := map[int]bool{}
	for _, p := range paths {
		if done[p.Line] {
			continue
		}
		pol := conf.SQL
		if p.Kind == cfg.SinkXSS {
			pol = conf.XSS
		}
		sp = tr.Begin("symexec.forpath", c.key, root)
		ps, err := symexec.ForPath(p, pol)
		tr.End(sp)
		if err != nil {
			return defectAnswer{}, err
		}
		a.constraints += ps.NumConstraints
		lc.constraints += ps.NumConstraints
		if len(ps.Inputs) == 0 {
			continue
		}
		b.systems = append(b.systems, ps)

		sw := startWatch()
		sp = tr.Begin("core.depgraph", c.key, root)
		lc.ciGroups += len(core.BuildGraph(ps.Sys).CIGroups())
		tr.End(sp)
		sw.add(&b.extra, &b.extraCPU)

		sp = tr.Begin("core.solve", c.key, root)
		before := allocBytes()
		res, err := core.SolveCtx(context.Background(), ps.Sys, conf.Solver)
		lc.allocBytes += allocBytes() - before
		tr.End(sp)
		if err != nil {
			return defectAnswer{}, err
		}
		lc.states += res.Usage.States
		lc.steps += res.Usage.Steps
		if res.Usage.Exhausted {
			lc.exhausted++
		}
		lc.assignments += len(res.Assignments)

		sw = startWatch()
		sp = tr.Begin("core.verify", c.key, root)
		for _, asg := range res.Assignments {
			if !core.Satisfies(ps.Sys, asg) {
				tr.End(sp)
				return defectAnswer{}, fmt.Errorf("%s: solver returned an assignment that does not satisfy its system", c.key)
			}
		}
		tr.End(sp)
		sw.add(&b.extra, &b.extraCPU)

		inputs, ok := firstCovering(res.Assignments, ps.Inputs)
		if !ok {
			continue
		}
		if !a.found {
			a.inputs, a.found = inputs, true
		}
		done[p.Line] = true
	}
	return a, nil
}

// firstCovering picks the first assignment giving every input a nonempty
// language, as core.DecideCtx does, and returns its shortest witnesses.
func firstCovering(asgs []core.Assignment, inputs []string) (map[string]string, bool) {
next:
	for _, asg := range asgs {
		out := map[string]string{}
		for _, v := range inputs {
			w, ok := asg.Lookup(v).ShortestWitness()
			if !ok {
				continue next
			}
			out[v] = w
		}
		return out, true
	}
	return nil, false
}

func (b *fig12Bench) measure(d time.Duration, tr *Tracer) (*outcome, error) {
	o := &outcome{Named: map[string]float64{}, Layer: map[string]float64{}}
	start := time.Now()
	var units []layerCounts
	for len(o.Ops) < b.minOps || time.Since(start) < d {
		units = append(units, b.unit(tr, o))
	}
	o.CPUPerOp = windowed(o.CPU, 0.5)
	o.Goodput = float64(o.Attempted-o.Failed) / (sum(o.CPU) / 1000)
	b.named(o)
	if tr != nil {
		lc := units[0]
		allocs := make([]float64, len(units))
		for i, u := range units {
			allocs[i] = float64(u.allocBytes) / (1 << 20)
			u.allocBytes = lc.allocBytes
			if u != lc {
				return nil, fmt.Errorf("per-layer counts differ between units of identical work: %+v vs %+v", lc, u)
			}
		}
		o.Layer = map[string]float64{
			"cfg.paths":           float64(lc.paths),
			"symexec.constraints": float64(lc.constraints),
			"core.ci_groups":      float64(lc.ciGroups),
			"core.assignments":    float64(lc.assignments),
			"core.solve_alloc_mb": quantile(allocs, 0.5),
			"budget.states":       float64(lc.states),
			"budget.steps":        float64(lc.steps),
			"budget.exhausted":    float64(lc.exhausted),
		}
	}
	return o, nil
}

// unit runs one unit of work and checks every answer, counting an error
// as a wrong answer. It appends the unit's wall and CPU time in ms,
// excluding the oracle checks and the traced run's extra calls, to o.Ops
// and o.CPU.
func (b *fig12Bench) unit(tr *Tracer, o *outcome) layerCounts {
	order := b.rng.Perm(len(b.cases))
	var lc layerCounts
	var elapsed, cpu time.Duration
	root := tr.Begin("unit", "", 0)
	b.systems = b.systems[:0]
	b.extra, b.extraCPU = 0, 0
	for _, i := range order {
		c := b.cases[i]
		sw := startWatch()
		var a defectAnswer
		var err error
		if tr == nil {
			a, err = analyze(c)
		} else {
			a, err = b.analyzeTraced(c, tr, root, &lc)
		}
		sw.add(&elapsed, &cpu)
		o.Attempted++
		if err != nil || !b.oracle.check(c, a) {
			o.Failed++
		}
	}
	tr.End(root)
	o.Ops = append(o.Ops, ms(elapsed-b.extra))
	o.CPU = append(o.CPU, ms(cpu-b.extraCPU))
	return lc
}

func (b *fig12Bench) named(o *outcome) {
	if b.sweep {
		o.Named["fig12.sweep_ms.p50"] = windowed(o.Ops, 0.5)
		o.Named["fig12.sweep_ms.p90"] = windowed(o.Ops, 0.9)
		o.Named["fig12.sweeps"] = float64(len(o.Ops))
		return
	}
	o.Named["secure.solve_s"] = windowed(o.Ops, 0.5) / 1000
	o.Named["secure.solves"] = float64(len(o.Ops))
}

// layers determinizes and minimizes every constant of the last traced
// unit's constraint systems — the work constant canonicalization does —
// recording nfa.determinize and nfa.minimize spans and the state counts.
func (b *fig12Bench) layers(tr *Tracer) (*outcome, error) {
	return nfaPass(tr, systemsOf(b.systems)), nil
}

func systemsOf(pss []*symexec.PathSystem) []*core.System {
	out := make([]*core.System, len(pss))
	for i, ps := range pss {
		out[i] = ps.Sys
	}
	return out
}

// nfaPass runs nfa.Determinize then DFA.Minimize on each distinct
// constant of the systems, in order of first appearance.
func nfaPass(tr *Tracer, systems []*core.System) *outcome {
	o := &outcome{Layer: map[string]float64{}}
	root := tr.Begin("unit", "nfa-pass", 0)
	defer tr.End(root)
	seen := map[*nfa.NFA]bool{}
	var dfaStates, minStates int
	for _, sys := range systems {
		for _, c := range constantsOf(sys) {
			if seen[c.Lang] {
				continue
			}
			seen[c.Lang] = true
			sp := tr.Begin("nfa.determinize", c.Name, root)
			dfa := nfa.Determinize(c.Lang)
			tr.End(sp)
			sp = tr.Begin("nfa.minimize", c.Name, root)
			min := dfa.Minimize()
			tr.End(sp)
			dfaStates += dfa.NumStates()
			minStates += min.NumStates()
		}
	}
	o.Layer["nfa.dfa_states"] = float64(dfaStates)
	o.Layer["nfa.min_states"] = float64(minStates)
	return o
}

// constantsOf lists the constants a system's constraints mention, left to
// right.
func constantsOf(sys *core.System) []*core.Const {
	var out []*core.Const
	var walk func(e core.Expr)
	walk = func(e core.Expr) {
		switch e := e.(type) {
		case *core.Const:
			out = append(out, e)
		case core.Cat:
			walk(e.Left)
			walk(e.Right)
		case core.Or:
			walk(e.Left)
			walk(e.Right)
		}
	}
	for _, c := range sys.Constraints() {
		walk(c.Lhs)
		out = append(out, c.Rhs)
	}
	return out
}

// replayOracle checks a defect's answer without the solver: the published
// |FG| and |C| must match, and the exploit, replayed through the program,
// must reach a query containing a quote without exiting. The replay runs
// twice — through lang.Execute, and through this file's interpreter,
// which evaluates preg_match with the standard library's regexp and so
// shares no code with internal/nfa or internal/core. Verdicts are memoized
// per (defect, exploit): the same answer always gets the same verdict.
type replayOracle struct {
	mu      sync.Mutex
	verdict map[string]bool
	res     map[string]*regexp.Regexp
}

func newReplayOracle() *replayOracle {
	return &replayOracle{verdict: map[string]bool{}, res: map[string]*regexp.Regexp{}}
}

func (o *replayOracle) check(c defectCase, a defectAnswer) bool {
	if !a.found || a.blocks != c.d.WantFG || a.constraints != c.d.WantC {
		return false
	}
	key := c.key + "\x00" + fmt.Sprint(a.inputs)
	o.mu.Lock()
	v, ok := o.verdict[key]
	o.mu.Unlock()
	if ok {
		return v
	}
	v = o.replay(c.prog, a.inputs)
	o.mu.Lock()
	o.verdict[key] = v
	o.mu.Unlock()
	return v
}

func (o *replayOracle) replay(prog *lang.Program, inputs map[string]string) bool {
	req := lang.Request{Get: map[string]string{}, Post: map[string]string{}}
	for name, val := range inputs {
		src, key, ok := strings.Cut(name, ":")
		switch {
		case ok && src == "GET":
			req.Get[key] = val
		case ok && src == "POST":
			req.Post[key] = val
		default:
			return false
		}
	}
	trace, err := lang.Execute(prog, req)
	if err != nil || !injected(trace.Exited, trace.Queries) {
		return false
	}
	in := &interpreter{req: req, env: map[string]string{}, res: o.res, mu: &o.mu}
	exited, err := in.block(prog.Stmts)
	return err == nil && injected(exited, in.queries)
}

// injected is the attack condition: execution reached a query and did not
// exit, and some query contains a single quote.
func injected(exited bool, queries []string) bool {
	if exited {
		return false
	}
	for _, q := range queries {
		if strings.Contains(q, "'") {
			return true
		}
	}
	return false
}

// interpreter executes the statement forms the corpus generates.
type interpreter struct {
	req     lang.Request
	env     map[string]string
	queries []string
	res     map[string]*regexp.Regexp
	mu      *sync.Mutex
}

var errUnsupported = errors.New("construct outside the corpus subset")

func (in *interpreter) block(stmts []lang.Stmt) (bool, error) {
	for _, s := range stmts {
		exited, err := in.stmt(s)
		if err != nil || exited {
			return exited, err
		}
	}
	return false, nil
}

func (in *interpreter) stmt(s lang.Stmt) (bool, error) {
	switch s := s.(type) {
	case *lang.Assign:
		v, err := in.eval(s.Rhs)
		in.env[s.Name] = v
		return false, err
	case *lang.Exit:
		return true, nil
	case *lang.Echo:
		_, err := in.eval(s.Arg)
		return false, err
	case *lang.CallStmt:
		_, err := in.eval(s.Call)
		return false, err
	case *lang.If:
		taken, err := in.cond(s.Cond)
		if err != nil {
			return false, err
		}
		if taken {
			return in.block(s.Then)
		}
		return in.block(s.Else)
	}
	return false, errUnsupported
}

func (in *interpreter) cond(c lang.Cond) (bool, error) {
	switch c := c.(type) {
	case *lang.PregMatch:
		arg, err := in.eval(c.Arg)
		if err != nil {
			return false, err
		}
		pat := c.Pattern
		if c.CaseInsensitive {
			pat = "(?i)" + pat
		}
		re, err := in.compile(pat)
		if err != nil {
			return false, err
		}
		return re.MatchString(arg) != c.Negated, nil
	case *lang.Nondet:
		// The corpus's configuration guards fall through concretely, as
		// in lang.Execute.
		return false, nil
	}
	return false, errUnsupported
}

func (in *interpreter) compile(pat string) (*regexp.Regexp, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if re, ok := in.res[pat]; ok {
		return re, nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	in.res[pat] = re
	return re, nil
}

func (in *interpreter) eval(e lang.Expr) (string, error) {
	switch e := e.(type) {
	case *lang.StrLit:
		return e.Value, nil
	case *lang.VarRef:
		return in.env[e.Name], nil
	case *lang.InputRef:
		switch e.Source {
		case "GET":
			return in.req.Get[e.Key], nil
		case "POST":
			return in.req.Post[e.Key], nil
		}
	case *lang.ConcatExpr:
		var sb strings.Builder
		for _, p := range e.Parts {
			v, err := in.eval(p)
			if err != nil {
				return "", err
			}
			sb.WriteString(v)
		}
		return sb.String(), nil
	case *lang.Call:
		if len(e.Args) != 1 {
			return "", errUnsupported
		}
		arg, err := in.eval(e.Args[0])
		if err != nil {
			return "", err
		}
		switch {
		case lang.IsSQLSink(e.Name):
			in.queries = append(in.queries, arg)
			return "", nil
		case e.Name == "intval":
			return intval(arg), nil
		}
	}
	return "", errUnsupported
}

// intval is PHP's intval followed by string conversion: optional leading
// whitespace and sign, then the longest digit run; "0" when there is none.
func intval(s string) string {
	s = strings.TrimLeft(s, " \t\n\r\v\f\x00")
	neg := strings.HasPrefix(s, "-")
	s = strings.TrimPrefix(strings.TrimPrefix(s, "-"), "+")
	end := 0
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	digits := strings.TrimLeft(s[:end], "0")
	if digits == "" {
		return "0"
	}
	if neg {
		return "-" + digits
	}
	return digits
}

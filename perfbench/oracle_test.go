package main

import (
	"bytes"
	"go/token"
	"maps"
	"strings"
	"testing"

	"dprle/internal/analysis"
	"dprle/internal/corpus"
	"dprle/internal/server"
)

func defectFor(t *testing.T, key string) defectCase {
	t.Helper()
	d, ok := corpus.DefectByName(key)
	if !ok {
		t.Fatalf("no defect %s", key)
	}
	b, err := newFig12Bench(1, []corpus.Defect{d}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b.cases[0]
}

func TestReplayOracleRejectsCorruptedExploits(t *testing.T) {
	c := defectFor(t, "eve/edit")
	good, err := analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if !newReplayOracle().check(c, good) {
		t.Fatalf("oracle rejected the solver's answer %v", good.inputs)
	}
	corrupt := func(name string, f func(a *defectAnswer)) {
		a := good
		a.inputs = maps.Clone(good.inputs)
		f(&a)
		if newReplayOracle().check(c, a) {
			t.Errorf("%s: oracle accepted a corrupted answer %v", name, a.inputs)
		}
	}
	key := "POST:edit_id"
	if _, ok := good.inputs[key]; !ok {
		t.Fatalf("exploit has no %s: %v", key, good.inputs)
	}
	corrupt("no quote", func(a *defectAnswer) { a.inputs[key] = strings.ReplaceAll(a.inputs[key], "'", "") })
	corrupt("fails the filter", func(a *defectAnswer) { a.inputs[key] += "x" })
	corrupt("missing input", func(a *defectAnswer) { delete(a.inputs, key) })
	corrupt("unknown source", func(a *defectAnswer) { a.inputs["COOKIE:x"] = "1" })
	corrupt("no exploit", func(a *defectAnswer) { a.found = false })
	corrupt("wrong |FG|", func(a *defectAnswer) { a.blocks++ })
	corrupt("wrong |C|", func(a *defectAnswer) { a.constraints-- })
}

// The oracle's own interpreter must agree with lang.Execute on its own:
// a guard it evaluates wrongly would let a bad exploit through.
func TestInterpreterEvaluatesGuards(t *testing.T) {
	c := defectFor(t, "utopia/login")
	good, err := analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	o := newReplayOracle()
	run := func(inputs map[string]string) bool {
		in := &interpreter{env: map[string]string{}, res: o.res, mu: &o.mu}
		in.req.Get, in.req.Post = map[string]string{}, map[string]string{}
		for name, v := range inputs {
			src, key, _ := strings.Cut(name, ":")
			if src == "GET" {
				in.req.Get[key] = v
			} else {
				in.req.Post[key] = v
			}
		}
		exited, err := in.block(c.prog.Stmts)
		return err == nil && injected(exited, in.queries)
	}
	if !run(good.inputs) {
		t.Fatalf("interpreter rejected the solver's exploit %v", good.inputs)
	}
	bad := maps.Clone(good.inputs)
	for k := range bad {
		if strings.HasPrefix(k, "GET:f") {
			bad[k] = "!" // violates every auxiliary guard pattern
			break
		}
	}
	if run(bad) {
		t.Errorf("interpreter accepted inputs that fail an auxiliary guard: %v", bad)
	}
}

func TestIntval(t *testing.T) {
	for in, want := range map[string]string{"": "0", "12ab": "12", " -007": "-7", "+3": "3", "x1": "0", "-0": "0"} {
		if got := intval(in); got != want {
			t.Errorf("intval(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWitnessOracle(t *testing.T) {
	r := &serveReq{wantSat: true, filter: `[\d]+$`, guards: []string{`(on|off)`}, prefix: "SELECT * FROM t WHERE id="}
	o := newWitnessOracle()
	good := []map[string]string{{"id": "'0", "a0": "on"}}
	if !o.check(r, server.StatusSat, good) {
		t.Fatalf("oracle rejected a correct witness")
	}
	for name, asgs := range map[string][]map[string]string{
		"no quote":       {{"id": "0", "a0": "on"}},
		"fails filter":   {{"id": "'0x", "a0": "on"}},
		"guard partial":  {{"id": "'0", "a0": "onn"}},
		"missing var":    {{"id": "'0"}},
		"one bad of two": {{"id": "'0", "a0": "on"}, {"id": "'", "a0": "off"}},
		"no assignment":  nil,
	} {
		if o.check(r, server.StatusSat, asgs) {
			t.Errorf("%s: oracle accepted %v", name, asgs)
		}
	}
	if o.check(r, server.StatusUnsat, nil) || o.check(r, server.StatusUnknown, nil) {
		t.Errorf("oracle accepted a non-sat status for a sat system")
	}
	shut := &serveReq{wantSat: false, filter: `^[\d]+$`}
	if !o.check(shut, server.StatusUnsat, nil) {
		t.Errorf("oracle rejected unsat for an anchored filter")
	}
	if o.check(shut, server.StatusSat, good) || o.check(shut, server.StatusUnknown, nil) {
		t.Errorf("oracle accepted a wrong status for an unsat system")
	}
}

func TestLintOracle(t *testing.T) {
	p := lintPackage{path: "v0/p0", files: []lintFile{{path: "v0/p0/f0.go", plants: []int{7, 12}}}}
	finding := func(analyzer string, line int) analysis.Finding {
		return analysis.Finding{Analyzer: analyzer, Pos: token.Position{Filename: "/src/v0/p0/f0.go", Line: line}}
	}
	exact := []analysis.Finding{finding("strlang", 12), finding("strlang", 7)}
	if !plantsMatch("/src", p, exact) {
		t.Fatalf("oracle rejected exactly the planted findings")
	}
	for name, fs := range map[string][]analysis.Finding{
		"missing":        exact[:1],
		"extra":          append(exact[:2:2], finding("strlang", 9)),
		"other analyzer": {finding("strlang", 12), finding("nilness", 7)},
		"none":           nil,
	} {
		if plantsMatch("/src", p, fs) {
			t.Errorf("%s: oracle accepted %v", name, fs)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	stream := func(seed int64) []byte {
		g := newGenerator(seed)
		var buf bytes.Buffer
		for i := 0; i < 500; i++ {
			buf.Write(g.request().body)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(7), stream(7)) {
		t.Errorf("serve: the same seed generated different requests")
	}
	if bytes.Equal(stream(7), stream(8)) {
		t.Errorf("serve: different seeds generated the same requests")
	}
	module := func(seed int64, v int) string {
		var b strings.Builder
		for _, p := range generateVariant(seed, v) {
			for _, f := range p.files {
				b.WriteString(f.path + "\n" + f.src)
			}
		}
		return b.String()
	}
	if module(7, 0) != module(7, 0) {
		t.Errorf("lint: the same seed generated different modules")
	}
	if module(7, 0) == module(8, 0) || module(7, 0) == module(7, 1) {
		t.Errorf("lint: different seeds or variants generated the same module")
	}
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dprle/internal/analysis"
	"dprle/internal/analyzers"
	"dprle/internal/analyzers/strlang"
)

// Generated lint input. Every variant has the same packages and the same
// number of functions of each shape; the seed and the variant index choose
// names, literals and order. So every pass does identical analysis work
// on text the strlang memo has not seen, and its counts repeat exactly.
const (
	lintPackages = 4 // packages per variant
	shapeRepeats = 2 // functions of each shape per package
	// loaderPasses is how many passes share one loader. The loader keeps
	// every package it loaded, so it is replaced (with an untimed standard
	// library warm-up) to keep the live heap independent of run length.
	loaderPasses = 4
)

// stdImports are the standard-library packages the generated code
// imports; set-up type-checks them once per loader.
var stdImports = []string{"context", "database/sql", "fmt", "strconv"}

// lintFile is one generated source file with its planted findings.
type lintFile struct {
	path   string // relative to the source root
	src    string
	plants []int // lines
}

// lintPackage is one generated package.
type lintPackage struct {
	path  string // import path, also the directory under the source root
	files []lintFile
}

// shape writes one function, or a few that belong together, into w;
// lines that must produce a finding are written with vuln.
type shape func(w *srcWriter, r *rand.Rand, n int)

// srcWriter builds a file line by line, recording planted lines.
type srcWriter struct {
	b      strings.Builder
	line   int
	plants []int
}

func (w *srcWriter) p(format string, args ...any) {
	fmt.Fprintf(&w.b, format+"\n", args...)
	w.line++
}

// vuln writes a line that must produce a strlang finding.
func (w *srcWriter) vuln(format string, args ...any) {
	w.p(format, args...)
	w.plants = append(w.plants, w.line)
}

func word(r *rand.Rand) string {
	b := make([]byte, 3+r.Intn(6))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// The shapes are those the strlang golden fixtures pin: + composition,
// fmt.Sprintf with %s and %d, strconv formatting, loops that need
// widening, //dprle:subset contracts, and same-package helpers seen
// through interprocedural summaries.
var shapes = []shape{
	func(w *srcWriter, r *rand.Rand, n int) { // + composition of an input
		w.p("func concatInput%d(db *sql.DB, user string) {", n)
		w.p("\tq := \"select %s from t_%s where %s = '\" + user + \"'\"", word(r), word(r), word(r))
		w.vuln("\tdb.Query(q)")
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // + composition of literals
		w.p("func concatConst%d(db *sql.DB) {", n)
		w.p("\tname := %q", word(r))
		w.p("\tq := \"select * from t_%s where %s = '\" + name + \"'\"", word(r), word(r))
		w.p("\tdb.Query(q)")
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // Sprintf %s of an input
		w.p("func sprintfInput%d(ctx context.Context, db *sql.DB, user string) {", n)
		w.p("\tq := fmt.Sprintf(\"update t_%s set %s = 1 where %s = '%%s'\", user)", word(r), word(r), word(r))
		w.vuln("\tdb.QueryContext(ctx, q)")
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // Sprintf of digits
		w.p("func sprintfDigits%d(db *sql.DB, id int) {", n)
		w.p("\tq := fmt.Sprintf(\"select %s from t_%s where id = %%s\", strconv.Itoa(id))", word(r), word(r))
		w.p("\tdb.Query(q)")
		w.p("\tdb.Query(fmt.Sprintf(\"delete from t_%s where id = %%d and ok = %%t\", id, true))", word(r))
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // loop that needs widening
		w.p("func loop%d(db *sql.DB, names []string) {", n)
		w.p("\tq := \"select * from t_%s where %s in (\"", word(r), word(r))
		w.p("\tfor _, n := range names {")
		w.p("\t\tq += \"'\" + n + \"',\"")
		w.p("\t}")
		w.p("\tq += \"'%s')\"", word(r))
		w.vuln("\tdb.Query(q)")
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // //dprle:subset contract
		w.p("//dprle:subset q /^([^']|'[^']*')*$/")
		w.p("func runQuery%d(q string) string {", n)
		w.p("\treturn q")
		w.p("}")
		w.p("")
		w.p("func annotated%d(user string) {", n)
		w.p("\trunQuery%d(\"select '%s' from t_%s\")", n, word(r), word(r))
		w.vuln("\trunQuery%d(\"%s = '\" + user + \"'\")", n, word(r))
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // helpers through summaries
		w.p("func constQuery%d() string {", n)
		w.p("\treturn \"select id from t_%s where %s = 'y'\"", word(r), word(r))
		w.p("}")
		w.p("")
		w.p("func quote%d(name string) string {", n)
		w.p("\treturn fmt.Sprintf(\"%s = '%%s'\", name)", word(r))
		w.p("}")
		w.p("")
		w.p("func helpers%d(db *sql.DB, user string) {", n)
		w.p("\tdb.Query(constQuery%d())", n)
		w.vuln("\tdb.Query(\"select * from t_%s where \" + quote%d(user))", word(r), n)
		w.p("}")
	},
	func(w *srcWriter, r *rand.Rand, n int) { // branches of literals, Tx sink
		w.p("func branches%d(tx *sql.Tx, newest bool, user string) error {", n)
		w.p("\tq := \"select * from t_%s order by %s\"", word(r), word(r))
		w.p("\tif newest {")
		w.p("\t\tq = \"select * from t_%s order by %s\"", word(r), word(r))
		w.p("\t}")
		w.p("\tif _, err := tx.Exec(q); err != nil {")
		w.p("\t\treturn err")
		w.p("\t}")
		w.vuln("\t_, err := tx.Exec(\"delete from t_%s where %s = '\" + user + \"'\")", word(r), word(r))
		w.p("\treturn err")
		w.p("}")
	},
}

// generateVariant generates variant v of the seeded lint input: its
// packages and the findings planted in them.
func generateVariant(seed int64, v int) []lintPackage {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
	var pkgs []lintPackage
	for p := 0; p < lintPackages; p++ {
		name := fmt.Sprintf("p%d", p)
		path := fmt.Sprintf("v%d/%s", v, name)
		var order []int
		for i := range shapes {
			for k := 0; k < shapeRepeats; k++ {
				order = append(order, i)
			}
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Two files per package: helpers and contracts cross file
		// boundaries within the package.
		var files []lintFile
		half := len(order) / 2
		for f, part := range [][]int{order[:half], order[half:]} {
			w := &srcWriter{}
			w.p("// Code generated by perfbench for the lint workload. DO NOT EDIT.")
			w.p("")
			w.p("package %s", name)
			w.p("")
			w.p("import (")
			for _, imp := range stdImports {
				w.p("\t%q", imp)
			}
			w.p(")")
			w.p("")
			w.p("var _ = context.Background")
			w.p("var _ = fmt.Sprint")
			w.p("var _ = strconv.Itoa")
			for i, s := range part {
				w.p("")
				shapes[s](w, r, f*100+i)
			}
			files = append(files, lintFile{path: filepath.Join(path, fmt.Sprintf("f%d.go", f)), src: w.b.String(), plants: w.plants})
		}
		pkgs = append(pkgs, lintPackage{path: path, files: files})
	}
	return pkgs
}

// lintBench runs the full analyzers.All() suite over generated variants.
type lintBench struct {
	seed    int64
	root    string // source root holding the variants
	loader  *analysis.Loader
	passes  int // passes run on the current loader
	variant int
}

func setupLint(seed int64, outDir string) (bench, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(outDir, "lint-")
	if err != nil {
		return nil, err
	}
	b := &lintBench{seed: seed, root: root}
	if err := b.newLoader(); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up pass over one variant; wrong findings are counted by the
	// timed phase.
	if _, err := b.pass(nil, &outcome{}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *lintBench) close() { os.RemoveAll(b.root) }

// newLoader replaces the loader and type-checks the standard-library
// imports into it.
func (b *lintBench) newLoader() error {
	b.loader = analysis.NewSourceLoader(b.root)
	b.passes = 0
	for _, imp := range stdImports {
		if _, err := b.loader.Import(imp); err != nil {
			return fmt.Errorf("importing %s: %w", imp, err)
		}
	}
	return nil
}

// writeVariant generates the next variant and writes it under the root.
func (b *lintBench) writeVariant() ([]lintPackage, error) {
	pkgs := generateVariant(b.seed, b.variant)
	b.variant++
	for _, p := range pkgs {
		for _, f := range p.files {
			full := filepath.Join(b.root, f.path)
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(full, []byte(f.src), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return pkgs, nil
}

// lintCounts are the counts of one pass.
type lintCounts struct {
	packages, solverCalls, cacheHits, discharged, widenings int
}

// pass lints one fresh variant, package by package, and checks the
// findings against the plants. It appends the pass's wall and CPU time in
// ms (loading plus analysis, not generation) to o.Ops and o.CPU and
// returns its counts.
func (b *lintBench) pass(tr *Tracer, o *outcome) (lintCounts, error) {
	var lc lintCounts
	if b.passes == loaderPasses {
		if err := b.newLoader(); err != nil {
			return lc, err
		}
	}
	b.passes++
	pkgs, err := b.writeVariant()
	if err != nil {
		return lc, err
	}
	sw := startWatch()
	root := tr.Begin("unit", fmt.Sprintf("v%d", b.variant-1), 0)
	for _, p := range pkgs {
		sp := tr.Begin("analysis.load", p.path, root)
		pkg, err := b.loader.Load(p.path)
		tr.End(sp)
		if err != nil {
			return lc, fmt.Errorf("loading %s: %w", p.path, err)
		}
		lc.packages++
		var findings []analysis.Finding
		if tr == nil {
			findings, err = analysis.Run(pkg, b.loader.Fset, analyzers.All())
			if err != nil {
				return lc, err
			}
		} else {
			for _, a := range analyzers.All() {
				sp := tr.Begin("analyzers."+a.Name, p.path, root)
				fs, stats, err := analysis.RunStats(pkg, b.loader.Fset, []*analysis.Analyzer{a})
				tr.End(sp)
				if err != nil {
					return lc, err
				}
				findings = append(findings, fs...)
				if a == strlang.Analyzer {
					c := stats[a.Name].Counters
					lc.solverCalls += c[strlang.StatSolverCalls]
					lc.cacheHits += c[strlang.StatCacheHits]
					lc.discharged += c[strlang.StatDischarged]
					lc.widenings += c[strlang.StatWidenings]
				}
			}
		}
		o.Attempted++
		if !plantsMatch(b.root, p, findings) {
			o.Failed++
		}
	}
	tr.End(root)
	var wall, cpu time.Duration
	sw.add(&wall, &cpu)
	o.Ops = append(o.Ops, ms(wall))
	o.CPU = append(o.CPU, ms(cpu))
	return lc, nil
}

// plantsMatch is the lint oracle: the package's findings, as file:line
// positions, must be exactly the planted ones, all from strlang.
func plantsMatch(root string, p lintPackage, findings []analysis.Finding) bool {
	var want, got []string
	for _, f := range p.files {
		for _, line := range f.plants {
			want = append(want, fmt.Sprintf("%s:%d", f.path, line))
		}
	}
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil || f.Analyzer != strlang.Analyzer.Name {
			return false
		}
		got = append(got, fmt.Sprintf("%s:%d", rel, f.Pos.Line))
	}
	sort.Strings(want)
	sort.Strings(got)
	return strings.Join(want, "\n") == strings.Join(got, "\n")
}

func (b *lintBench) measure(d time.Duration, tr *Tracer) (*outcome, error) {
	o := &outcome{Named: map[string]float64{}, Layer: map[string]float64{}}
	var counts []lintCounts
	for len(o.Ops) == 0 || sum(o.Ops) < ms(d) {
		lc, err := b.pass(tr, o)
		if err != nil {
			return nil, err
		}
		counts = append(counts, lc)
	}
	o.CPUPerOp = windowed(o.CPU, 0.5)
	o.Goodput = float64(o.Attempted-o.Failed) / (sum(o.CPU) / 1000)
	o.Named["lint.wall_s"] = windowed(o.Ops, 0.5) / 1000
	o.Named["lint.passes"] = float64(len(o.Ops))
	if tr != nil {
		lc := counts[0]
		hits := make([]float64, len(counts))
		calls := make([]float64, len(counts))
		for i, c := range counts {
			hits[i], calls[i] = float64(c.cacheHits), float64(c.solverCalls)
			c.cacheHits, c.solverCalls = lc.cacheHits, lc.solverCalls
			if c != lc {
				return nil, fmt.Errorf("per-layer counts differ between passes of identical work: %+v vs %+v", lc, c)
			}
		}
		o.Layer = map[string]float64{
			"analysis.packages":    float64(lc.packages),
			"strlang.solver_calls": quantile(calls, 0.5),
			"strlang.cache_hits":   quantile(hits, 0.5),
			"strlang.discharged":   float64(lc.discharged),
			"strlang.widenings":    float64(lc.widenings),
		}
	}
	return o, nil
}

func (b *lintBench) layers(*Tracer) (*outcome, error) { return &outcome{}, nil }

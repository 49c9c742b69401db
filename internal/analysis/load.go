package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path    string // import path
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Sources map[string][]byte

	memo memo // results shared by the analyzers run on this package
}

// A Loader parses and type-checks packages from source. It resolves three
// kinds of import paths:
//
//   - paths under the module rooted at ModuleRoot (read from go.mod),
//     resolved to directories of the module tree;
//   - paths under any extra source root (used by analysistest fixtures,
//     where testdata/src/<path> holds package <path>);
//   - everything else, delegated to the standard library's source importer.
//
// Loaded packages are memoized, so shared dependencies type-check once.
// Test files (_test.go) and files excluded by build constraints under the
// host build context are skipped: the analyzers target the production
// build. A directory containing only such files is not a package.
type Loader struct {
	Fset *token.FileSet

	modulePath string
	moduleRoot string
	srcRoots   []string

	std  types.Importer
	pkgs map[string]*loadResult
}

type loadResult struct {
	pkg *Package
	err error
}

// NewLoader returns a Loader for the Go module rooted at moduleRoot,
// reading the module path from its go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleRoot)
	}
	l := newLoader()
	l.modulePath = modPath
	l.moduleRoot = moduleRoot
	return l, nil
}

// NewSourceLoader returns a Loader that resolves every non-std import path
// p to the directory srcRoot/p. This is the layout analysistest fixtures
// use (testdata/src/<path>).
func NewSourceLoader(srcRoot string) *Loader {
	l := newLoader()
	l.srcRoots = []string{srcRoot}
	return l
}

func newLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loadResult{},
	}
}

// ModulePath returns the module path from go.mod ("" for source loaders).
func (l *Loader) ModulePath() string { return l.modulePath }

// dirFor resolves an import path to a directory, or "" if the path is not
// module-local and not under a source root (i.e. it belongs to std).
func (l *Loader) dirFor(path string) string {
	if l.modulePath != "" {
		if path == l.modulePath {
			return l.moduleRoot
		}
		if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
			return filepath.Join(l.moduleRoot, filepath.FromSlash(rest))
		}
	}
	for _, root := range l.srcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	return ""
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && includeGoFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// includeGoFile reports whether the named file belongs to the production
// build of the package in dir: a .go file that is not a test file, not
// hidden or tool-ignored (leading "." or "_"), and not excluded by build
// constraints — //go:build lines or GOOS/GOARCH file-name suffixes — under
// the host build context. Using one predicate for both package discovery
// (ModulePackages, dirFor) and loading (parseAndCheck) keeps the two views
// consistent: a directory whose every .go file is excluded is not a
// package at all, rather than a package that fails to load.
func includeGoFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// Import implements types.Importer, so a Loader can resolve the imports of
// the packages it loads (including fixture-local fake dependencies).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: cannot resolve package %q to a directory", path)
	}
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if r, ok := l.pkgs[path]; ok {
		return r.pkg, r.err
	}
	// Reserve the slot first so import cycles fail fast instead of
	// recursing forever.
	l.pkgs[path] = &loadResult{err: fmt.Errorf("analysis: import cycle through %q", path)}
	pkg, err := l.parseAndCheck(path, dir)
	l.pkgs[path] = &loadResult{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) parseAndCheck(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !includeGoFile(dir, e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	sources := map[string][]byte{}
	for _, n := range names {
		fn := filepath.Join(dir, n)
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		sources[fn] = src
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Sources: sources}, nil
}

// ModulePackages walks the module tree and returns the import paths of all
// directories containing production Go files, skipping testdata, hidden
// directories, and nested modules. Paths are sorted.
func (l *Loader) ModulePackages() ([]string, error) {
	if l.moduleRoot == "" {
		return nil, fmt.Errorf("analysis: loader has no module root")
	}
	var paths []string
	err := filepath.WalkDir(l.moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.moduleRoot {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(l.moduleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modulePath)
		} else {
			paths = append(paths, l.modulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
